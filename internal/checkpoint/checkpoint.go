// Package checkpoint serializes an anonymization state — one location
// snapshot together with its computed policy-aware cloaking — so an
// anonymization server can restart, or hand over a jurisdiction, without
// recomputing the optimum configuration matrix. The format is a gob
// stream wrapped with a magic header, a format version and a CRC32
// integrity checksum; Load re-validates the masking property and the
// policy-aware k-anonymity of the restored policy, so a corrupted or
// tampered checkpoint can never install an unsafe policy.
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

// ErrUnsafe is returned when a decoded checkpoint's policy fails the
// masking or k-anonymity re-validation.
var ErrUnsafe = errors.New("checkpoint: restored policy failed safety validation")

// payload is the gob-encoded body.
type payload struct {
	Version int
	K       int
	Bounds  geo.Rect
	Users   []userRec
}

type userRec struct {
	ID    string
	Loc   geo.Point
	Cloak geo.Rect
}

// State is a restored anonymization state.
type State struct {
	K      int
	Bounds geo.Rect
	DB     *location.DB
	Policy *lbs.Assignment
}

// Save writes the checkpoint of a snapshot and its policy.
func Save(w io.Writer, k int, bounds geo.Rect, policy *lbs.Assignment) error {
	if policy == nil {
		return fmt.Errorf("checkpoint: nil policy")
	}
	db := policy.DB()
	p := payload{Version: Version, K: k, Bounds: bounds, Users: make([]userRec, db.Len())}
	for i := 0; i < db.Len(); i++ {
		rec := db.At(i)
		p.Users[i] = userRec{ID: rec.UserID, Loc: rec.Loc, Cloak: policy.CloakAt(i)}
	}
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
	body := make([]byte, size)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
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
	if p.K < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrUnsafe, p.K)
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
	if db.Len() > 0 && !attacker.IsKAnonymous(policy, p.K, attacker.PolicyAware) {
		return nil, fmt.Errorf("%w: restored policy not policy-aware %d-anonymous", ErrUnsafe, p.K)
	}
	return &State{K: p.K, Bounds: p.Bounds, DB: db, Policy: policy}, nil
}
