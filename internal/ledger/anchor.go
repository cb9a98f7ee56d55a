package ledger

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"policyanon/internal/metrics"
)

// MemAnchor is the in-memory anchor: sealed batches accumulate in a
// slice. It is the mock for tests and the default for deployments that
// only need proofs over the retained window.
type MemAnchor struct {
	mu      sync.Mutex
	batches []*SealedBatch
}

// NewMemAnchor returns an empty in-memory anchor.
func NewMemAnchor() *MemAnchor { return &MemAnchor{} }

// Seal implements Anchor.
func (a *MemAnchor) Seal(b *SealedBatch) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches = append(a.batches, b)
	return nil
}

// Last implements Anchor.
func (a *MemAnchor) Last() (Checkpoint, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.batches) == 0 {
		return Checkpoint{}, false
	}
	return a.batches[len(a.batches)-1].Checkpoint, true
}

// Batches returns the anchored history (for tests).
func (a *MemAnchor) Batches() []*SealedBatch {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*SealedBatch(nil), a.batches...)
}

// FileAnchor is the file-backed anchor: an append-only log with one
// JSON record per line, each a SealedBatch, fsynced per seal. Opening
// an existing file replays and verifies the whole chain (any mutation
// fails the open); a torn final line — the crash-safe case, a process
// killed mid-write — is truncated away, which is safe because a seal is
// only acknowledged after the fsync of its complete line.
type FileAnchor struct {
	path   string
	f      *os.File
	last   Checkpoint
	hasCp  bool
	reg    *metrics.Registry
	logger *slog.Logger
	mu     sync.Mutex
}

// OpenFileAnchor opens (creating if missing) the append-only anchor log
// at path. reg, when non-nil, receives the ledger_anchor_fsync latency
// histogram; logger, when non-nil, gets a structured recovery record if
// a torn tail was truncated.
func OpenFileAnchor(path string, reg *metrics.Registry, logger *slog.Logger) (*FileAnchor, error) {
	res, tornAt, err := replayAnchor(path, nil)
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		res = &VerifyResult{}
		tornAt = -1
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	if tornAt >= 0 {
		// Crash recovery: drop the torn tail so the next seal appends a
		// well-formed line.
		if err := f.Truncate(tornAt); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: truncate torn anchor tail: %w", err)
		}
		if logger != nil {
			logger.Warn("ledger: anchor recovered from torn tail",
				"path", path, "truncatedAt", tornAt, "batches", res.Batches)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	a := &FileAnchor{path: path, f: f, reg: reg, logger: logger}
	if res.Batches > 0 {
		a.last = res.LastCheckpoint
		a.hasCp = true
	}
	return a, nil
}

// Seal implements Anchor: marshal, append, fsync. The batch is durable
// when Seal returns.
func (a *FileAnchor) Seal(b *SealedBatch) error {
	line, err := json.Marshal(b)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.f.Write(line); err != nil {
		return fmt.Errorf("ledger: anchor append: %w", err)
	}
	start := time.Now()
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("ledger: anchor fsync: %w", err)
	}
	if a.reg != nil {
		a.reg.Histogram("ledger_anchor_fsync").Observe(time.Since(start))
	}
	a.last = b.Checkpoint
	a.hasCp = true
	return nil
}

// Last implements Anchor.
func (a *FileAnchor) Last() (Checkpoint, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last, a.hasCp
}

// Close closes the underlying file. The owning Ledger must be closed
// first (its final seal still needs the file).
func (a *FileAnchor) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Close()
}

// VerifyResult summarizes a successful anchor replay.
type VerifyResult struct {
	// Batches and Events count the verified history.
	Batches int    `json:"batches"`
	Events  uint64 `json:"events"`
	// ByKind counts events per taxonomy kind.
	ByKind map[Kind]uint64 `json:"byKind,omitempty"`
	// LastCheckpoint is the chain head; its ChainRoot commits the whole
	// file.
	LastCheckpoint Checkpoint `json:"lastCheckpoint"`
	// PublicKeys lists every signing key seen, in order of first use (a
	// restarted server with a fresh ephemeral key starts a new one).
	PublicKeys []string `json:"publicKeys,omitempty"`
}

// VerifyAnchorFile replays the anchor log at path and verifies every
// batch: leaf hashes recompute from the recorded events, the Merkle
// root matches the checkpoint, chain roots link and recompute, sequence
// numbers are contiguous, and every signature verifies. pin, when
// non-nil, additionally requires every checkpoint to be signed by that
// key. Any mutation — a flipped byte, a dropped or reordered event, an
// excised batch — fails with an error naming the first bad batch. This
// is the offline verifier behind `anoncli verify-ledger`.
func VerifyAnchorFile(path string, pin ed25519.PublicKey) (*VerifyResult, error) {
	res, tornAt, err := replayAnchor(path, pin)
	if err != nil {
		return nil, err
	}
	if tornAt >= 0 {
		return nil, fmt.Errorf("ledger: %s: torn record at byte %d (crash artifact or truncation) after %d verified batches",
			path, tornAt, res.Batches)
	}
	return res, nil
}

// replayAnchor reads and verifies the anchor log. A malformed FINAL
// record is reported via tornAt (its byte offset) rather than an error,
// so the writer's crash recovery and the strict offline verifier can
// share one replay. Malformed records elsewhere are hard errors.
func replayAnchor(path string, pin ed25519.PublicKey) (res *VerifyResult, tornAt int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, -1, err
	}
	defer f.Close()
	res = &VerifyResult{ByKind: make(map[Kind]uint64)}
	tornAt = -1

	var offset int64
	var prevChain [32]byte
	var nextSeq uint64 = 1
	seenKeys := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		lineStart := offset
		offset += int64(len(line)) + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var b SealedBatch
		if err := json.Unmarshal(line, &b); err != nil {
			// A record that fails to parse is a torn tail only when it is
			// the final line; otherwise the file is corrupt in the middle.
			if !scannerHasMore(sc) {
				return res, lineStart, nil
			}
			return nil, -1, fmt.Errorf("ledger: %s: batch %d: corrupt record: %w", path, res.Batches+1, err)
		}
		if err := verifyBatch(&b, prevChain, nextSeq, res.Batches == 0); err != nil {
			return nil, -1, fmt.Errorf("ledger: %s: %w", path, err)
		}
		if pin != nil && b.Checkpoint.PublicKey != hex.EncodeToString(pin) {
			return nil, -1, fmt.Errorf("ledger: %s: batch %d signed by %s, not the pinned key",
				path, b.Checkpoint.BatchSeq, rootPrefix(b.Checkpoint.PublicKey))
		}
		if !seenKeys[b.Checkpoint.PublicKey] {
			seenKeys[b.Checkpoint.PublicKey] = true
			res.PublicKeys = append(res.PublicKeys, b.Checkpoint.PublicKey)
		}
		prevChain, _ = parseHash(b.Checkpoint.ChainRoot)
		nextSeq = b.Checkpoint.FirstSeq + uint64(b.Checkpoint.Count)
		res.Batches++
		res.Events += uint64(len(b.Events))
		for i := range b.Events {
			res.ByKind[b.Events[i].Kind]++
		}
		res.LastCheckpoint = b.Checkpoint
	}
	if err := sc.Err(); err != nil {
		return nil, -1, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return res, tornAt, nil
}

// scannerHasMore reports whether sc has any non-blank content left.
// bufio.Scanner gives no direct access, so peek by scanning ahead — the
// replay only calls this on the error path, where the extra scan cost
// is irrelevant.
func scannerHasMore(sc *bufio.Scanner) bool {
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			return true
		}
	}
	return false
}

// verifyBatch checks one sealed batch against the replay state: event
// sequence contiguity, leaf and Merkle root recomputation, chain
// linkage, and the checkpoint's own consistency + signature.
func verifyBatch(b *SealedBatch, prevChain [32]byte, nextSeq uint64, genesis bool) error {
	cp := &b.Checkpoint
	if cp.Count != len(b.Events) {
		return fmt.Errorf("batch %d: checkpoint counts %d events, record carries %d (event dropped or injected)",
			cp.BatchSeq, cp.Count, len(b.Events))
	}
	if len(b.Events) == 0 {
		return fmt.Errorf("batch %d: empty batch", cp.BatchSeq)
	}
	if cp.FirstSeq != nextSeq {
		return fmt.Errorf("batch %d: first seq %d, want %d (batch dropped or reordered)",
			cp.BatchSeq, cp.FirstSeq, nextSeq)
	}
	leaves := make([][32]byte, len(b.Events))
	for i := range b.Events {
		if b.Events[i].Seq != cp.FirstSeq+uint64(i) {
			return fmt.Errorf("batch %d: event %d has seq %d, want %d (event dropped or reordered)",
				cp.BatchSeq, i, b.Events[i].Seq, cp.FirstSeq+uint64(i))
		}
		leaves[i] = b.Events[i].LeafHash()
	}
	root := merkleRoot(leaves)
	claimed, err := parseHash(cp.BatchRoot)
	if err != nil {
		return fmt.Errorf("batch %d: bad batch root: %w", cp.BatchSeq, err)
	}
	if subtle.ConstantTimeCompare(root[:], claimed[:]) != 1 {
		return fmt.Errorf("batch %d: events do not hash to the sealed root (event bytes mutated)", cp.BatchSeq)
	}
	recordedPrev, err := parseHash(cp.PrevChainRoot)
	if err != nil {
		return fmt.Errorf("batch %d: bad prev chain root: %w", cp.BatchSeq, err)
	}
	if genesis {
		// A resumed chain may start mid-history (the writer recovered its
		// head from this very file), but a standalone file starts at zero.
		if cp.BatchSeq == 1 && recordedPrev != [32]byte{} {
			return fmt.Errorf("batch 1: genesis prev chain root is nonzero")
		}
		prevChain = recordedPrev
	}
	if subtle.ConstantTimeCompare(recordedPrev[:], prevChain[:]) != 1 {
		return fmt.Errorf("batch %d: chain broken: prev root %s does not match predecessor %s",
			cp.BatchSeq, rootPrefix(cp.PrevChainRoot), rootPrefix(hexHash(prevChain)))
	}
	return cp.Verify()
}

// LoadOrCreateKey loads the Ed25519 signing key from path, generating
// and persisting (0600) a fresh seed when the file does not exist. The
// file holds the 32-byte seed as lowercase hex, so chains survive
// restarts under one identity.
func LoadOrCreateKey(path string) (ed25519.PrivateKey, error) {
	data, err := os.ReadFile(path)
	if err == nil {
		seed, derr := hex.DecodeString(string(bytes.TrimSpace(data)))
		if derr != nil || len(seed) != ed25519.SeedSize {
			return nil, fmt.Errorf("ledger: key file %s: want %d hex-encoded seed bytes", path, ed25519.SeedSize)
		}
		return ed25519.NewKeyFromSeed(seed), nil
	}
	if !os.IsNotExist(err) {
		return nil, err
	}
	_, key, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(key.Seed())+"\n"), 0o600); err != nil {
		return nil, fmt.Errorf("ledger: persist key: %w", err)
	}
	return key, nil
}
