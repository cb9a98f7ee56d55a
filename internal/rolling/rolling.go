// Package rolling provides the serving-path wrapper around the core
// anonymizer: a CSP must answer cloak lookups continuously while the next
// snapshot's policy is being computed. Rolling keeps the published policy
// in an atomic pointer — reads never block — and performs movement
// ingestion, incremental maintenance, verification and policy swap under a
// single writer lock (Commit).
//
// Published policies are bound to immutable clones of the location
// snapshot, so readers always observe a consistent (snapshot, policy)
// pair: requests racing a snapshot boundary get either the old pair or
// the new pair, never a partial one.
//
// Publication is delta-native: while the chain from the last published
// policy is intact, Commit extracts only the cloaks that changed
// (Matrix.ExtractDelta) and derives the next published assignment by
// copy-on-write (Assignment.ApplyDelta), so committing a single user's
// move costs O(dirty subtree) instead of O(|D|). Any break in the chain —
// first publish, failed publish, delta mismatch — falls back to the full
// extract-clone-verify path and re-anchors it.
package rolling

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/verify"
)

// Anonymizer is the rolling-policy server. Create with New, which takes
// ownership of db (callers must not mutate it afterwards).
type Anonymizer struct {
	k int

	// current holds the published policy over an immutable snapshot
	// clone; lookups read it lock-free.
	current atomic.Pointer[lbs.Assignment]
	epoch   atomic.Int64

	// mu serializes writers (Move/Commit) and guards everything below.
	mu      sync.Mutex
	db      *location.DB // live snapshot, owned by this Anonymizer
	anon    *core.Anonymizer
	pending int
	// pendingMv coalesces staged moves per record index, capturing each
	// record's From at its first move since the last successful publish —
	// exactly the parent state ApplyDelta validates against. Entries are
	// kept until a publish succeeds, so a failed Commit retries with the
	// full move set.
	pendingMv map[int]lbs.Move
	// lastPub is the published assignment matching the matrix's extraction
	// baseline; nil whenever the two may disagree, forcing a full publish.
	lastPub *lbs.Assignment

	// last*, set by publishLocked, feed Commit's Stats.
	lastRowsExtracted int
	lastCloaksChanged int
	lastDelta         bool
}

// New computes, verifies and publishes the initial policy.
func New(db *location.DB, bounds geo.Rect, k int) (*Anonymizer, error) {
	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: k})
	if err != nil {
		return nil, err
	}
	r := &Anonymizer{
		k:         k,
		db:        db,
		anon:      anon,
		pendingMv: make(map[int]lbs.Move),
	}
	if err := r.publishLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// publishLocked extracts, verifies and atomically publishes the current
// policy: through the copy-on-write delta chain while it is intact, from
// scratch over an immutable snapshot clone otherwise. Callers hold mu (or
// are in New before the value escapes).
func (r *Anonymizer) publishLocked() error {
	if r.lastPub != nil {
		changes, visited, err := r.anon.Matrix().ExtractDelta()
		if err == nil {
			mvs := make([]lbs.Move, 0, len(r.pendingMv))
			for _, mv := range r.pendingMv {
				mvs = append(mvs, mv)
			}
			pub, aerr := r.lastPub.ApplyDelta(mvs, changes)
			if aerr == nil {
				if verr := r.verifyLocked(pub); verr != nil {
					// The matrix baseline advanced past the published
					// policy when ExtractDelta succeeded.
					r.lastPub = nil
					return verr
				}
				r.storeLocked(pub, visited, len(changes), true)
				return nil
			}
			// Delta mismatch against the published parent: the matrix has
			// absorbed the changes, so drop the chain and publish in full.
			r.lastPub = nil
		}
		// ErrNoDeltaBaseline falls through likewise.
	}
	cloaks, err := r.anon.Matrix().Extract()
	if err != nil {
		return err
	}
	policy, err := lbs.NewAssignment(r.db.Clone(), cloaks)
	if err != nil {
		r.lastPub = nil
		return err
	}
	if verr := r.verifyLocked(policy); verr != nil {
		r.lastPub = nil
		return verr
	}
	r.storeLocked(policy, policy.Len(), policy.Len(), false)
	return nil
}

// verifyLocked gates one publish, delta or full, with the full
// verification.
func (r *Anonymizer) verifyLocked(pub *lbs.Assignment) error {
	if rep := verify.Policy(pub, r.k); !rep.OK() {
		return fmt.Errorf("rolling: refusing to publish: %s", rep.Problems[0])
	}
	return nil
}

// storeLocked swaps the published policy and re-anchors the delta chain.
func (r *Anonymizer) storeLocked(pub *lbs.Assignment, rowsExtracted, cloaksChanged int, delta bool) {
	r.current.Store(pub)
	r.epoch.Add(1)
	r.lastPub = pub
	clear(r.pendingMv)
	r.lastRowsExtracted = rowsExtracted
	r.lastCloaksChanged = cloaksChanged
	r.lastDelta = delta
}

// CloakOf returns the user's cloak under the currently published policy.
// It never blocks on policy recomputation.
func (r *Anonymizer) CloakOf(userID string) (geo.Rect, error) {
	return r.current.Load().CloakOf(userID)
}

// Policy returns the currently published (snapshot, policy) pair.
func (r *Anonymizer) Policy() *lbs.Assignment { return r.current.Load() }

// Epoch returns the number of policies published so far.
func (r *Anonymizer) Epoch() int64 { return r.epoch.Load() }

// Move stages one user relocation for the next snapshot. The published
// policy is unaffected until Commit.
func (r *Anonymizer) Move(userID string, to geo.Point) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.db.Index(userID)
	if i < 0 {
		return fmt.Errorf("rolling: unknown user %q", userID)
	}
	mv, ok := r.pendingMv[i]
	if !ok {
		mv = lbs.Move{Index: i, From: r.db.At(i).Loc}
	}
	if err := r.anon.Move(i, to); err != nil {
		// The live state may be half-updated; force the next publish to go
		// from scratch rather than trust the chain.
		r.lastPub = nil
		return err
	}
	mv.To = to
	r.pendingMv[i] = mv
	r.pending++
	return nil
}

// Stats reports the outcome of a Commit.
type Stats struct {
	Epoch        int64
	PendingMoves int
	PolicyCost   int64
	CommitTime   time.Duration
	// RowsExtracted is the number of tree nodes the policy-exhibition pass
	// re-assigned (|D| for full publishes).
	RowsExtracted int
	// CloaksChanged is the number of per-user cloak rewrites this publish
	// carried (|D| for full publishes).
	CloaksChanged int
	// Delta marks a publish through the copy-on-write delta path.
	Delta bool
}

// Commit refreshes the configuration matrix incrementally, extracts and
// verifies the next policy, and publishes it atomically — by delta while
// the chain from the previous publish is intact.
func (r *Anonymizer) Commit() (Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	r.anon.Refresh()
	pending := r.pending
	if err := r.publishLocked(); err != nil {
		return Stats{}, err
	}
	r.pending = 0
	return Stats{
		Epoch:         r.epoch.Load(),
		PendingMoves:  pending,
		PolicyCost:    r.current.Load().Cost(),
		CommitTime:    time.Since(start),
		RowsExtracted: r.lastRowsExtracted,
		CloaksChanged: r.lastCloaksChanged,
		Delta:         r.lastDelta,
	}, nil
}
