// Package checkpoint serializes an anonymization state — one location
// snapshot together with its computed policy-aware cloaking and the
// engine that computed it — so an anonymization server can restart
// without recomputing the optimum configuration matrix. The format is a
// gob stream wrapped with a magic header, a format version and a CRC32
// integrity checksum. Load re-validates the masking property and the
// policy-aware k-anonymity of the restored policy, so a corrupted or
// tampered checkpoint can never install an unsafe policy; Save applies
// the same check, so it never writes a file Load would refuse.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"policyanon/internal/attacker"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// magic identifies checkpoint streams.
var magic = [8]byte{'P', 'A', 'N', 'O', 'N', 'C', 'K', '1'}

// Version is the current checkpoint format version.
const Version = 1

// ErrCorrupt is returned when the stream fails structural or checksum
// validation.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated stream")

// ErrUnsafe is returned when a policy fails the masking or k-anonymity
// validation: by Load for a decoded checkpoint, by Save before writing.
var ErrUnsafe = errors.New("checkpoint: policy failed safety validation")

// payload is the gob-encoded body. Engine and Opts were added without a
// version bump: a body without them decodes with an empty Engine, the
// default engine.
type payload struct {
	Version int
	K       int
	Bounds  geo.Rect
	Users   []userRec
	Engine  string
	Opts    map[string]string
}

type userRec struct {
	ID    string
	Loc   geo.Point
	Cloak geo.Rect
}

// State is an anonymization state: what Save writes and Load restores.
type State struct {
	K      int
	Bounds geo.Rect
	// DB is the policy's snapshot. Save reads it from Policy and ignores
	// this field.
	DB     *location.DB
	Policy *lbs.Assignment
	// Engine is the registry name of the engine that computed Policy, and
	// Opts its options; an empty Engine is the default engine.
	Engine string
	Opts   map[string]string
}

// Save writes the checkpoint of a policy and its snapshot. It fails with
// ErrUnsafe, writing nothing, for a policy that Load would refuse.
func Save(w io.Writer, st *State) error {
	if st.Policy == nil {
		return fmt.Errorf("checkpoint: nil policy")
	}
	if err := safe(st.Policy, st.K); err != nil {
		return err
	}
	db := st.Policy.DB()
	p := payload{Version: Version, K: st.K, Bounds: st.Bounds, Users: make([]userRec, db.Len()), Engine: st.Engine, Opts: st.Opts}
	for i := 0; i < db.Len(); i++ {
		rec := db.At(i)
		p.Users[i] = userRec{ID: rec.UserID, Loc: rec.Loc, Cloak: st.Policy.CloakAt(i)}
	}
	return write(w, p)
}

// safe is the guarantee every checkpoint carries: the policy is
// policy-aware k-anonymous on its snapshot for k >= 1.
func safe(policy *lbs.Assignment, k int) error {
	if k < 1 {
		return fmt.Errorf("%w: k=%d", ErrUnsafe, k)
	}
	if policy.Len() > 0 && !attacker.IsKAnonymous(policy, k, attacker.PolicyAware) {
		return fmt.Errorf("%w: policy not policy-aware %d-anonymous", ErrUnsafe, k)
	}
	return nil
}

// write frames and writes one gob-encoded body.
func write(w io.Writer, p any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("checkpoint: write magic: %w", err)
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(body.Len()))
	binary.BigEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(body.Bytes()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if _, err := bw.Write(body.Bytes()); err != nil {
		return fmt.Errorf("checkpoint: write body: %w", err)
	}
	return bw.Flush()
}

// Load reads and validates a checkpoint. It fails with ErrCorrupt for
// structural damage and ErrUnsafe if the restored policy does not mask
// its users or does not provide policy-aware sender k-anonymity.
func Load(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	size := binary.BigEndian.Uint64(hdr[:8])
	const maxCheckpoint = 1 << 32 // 4 GiB sanity cap
	if size > maxCheckpoint {
		return nil, fmt.Errorf("%w: implausible payload size %d", ErrCorrupt, size)
	}
	// The declared size is trusted only as the bytes arrive: a header
	// claiming gigabytes over a short stream costs what the stream holds.
	body, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err != nil || uint64(len(body)) != size {
		return nil, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[8:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var p payload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", p.Version)
	}
	recs := make([]location.Record, len(p.Users))
	cloaks := make([]geo.Rect, len(p.Users))
	for i, u := range p.Users {
		recs[i] = location.Record{UserID: u.ID, Loc: u.Loc}
		cloaks[i] = u.Cloak
	}
	db, err := location.FromRecords(recs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	policy, err := lbs.NewAssignment(db, cloaks)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsafe, err)
	}
	if err := safe(policy, p.K); err != nil {
		return nil, err
	}
	return &State{K: p.K, Bounds: p.Bounds, DB: db, Policy: policy, Engine: p.Engine, Opts: p.Opts}, nil
}
