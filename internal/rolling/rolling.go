// Package rolling provides the serving-path wrapper around the core
// anonymizer: a CSP must answer cloak lookups continuously while the next
// snapshot's policy is being computed. Rolling keeps the published policy
// in an atomic pointer — reads never block — and performs movement
// ingestion, incremental maintenance, verification and policy swap under a
// single writer lock (Commit).
//
// Published policies are bound to immutable snapshots, so readers always
// observe a consistent (snapshot, policy) pair: requests racing a snapshot
// boundary get either the old pair or the new pair, never a partial one.
//
// Rolling is a synchronous caller of core.Publisher, the one
// delta-publication chain: Commit publishes by copy-on-write delta while
// the chain is anchored, so committing a single user's move costs
// O(dirty subtree) instead of O(|D|), and in full after any failure.
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

	// current holds the published policy over an immutable snapshot;
	// lookups read it lock-free.
	current atomic.Pointer[lbs.Assignment]
	epoch   atomic.Int64

	// mu serializes writers (Move/Commit) and guards everything below.
	mu      sync.Mutex
	db      *location.DB // live snapshot, owned through pub
	pub     *core.Publisher
	pending int
}

// New computes, verifies and publishes the initial policy.
func New(db *location.DB, bounds geo.Rect, k int) (*Anonymizer, error) {
	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: k})
	if err != nil {
		return nil, err
	}
	r := &Anonymizer{k: k, db: db, pub: core.NewPublisher(anon)}
	if _, err := r.Commit(); err != nil {
		return nil, err
	}
	return r, nil
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
	if err := r.pub.Move(i, to); err != nil {
		return err
	}
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

// Commit refreshes the configuration matrix incrementally, extracts the
// next policy, gates it with the full verification and publishes it
// atomically — by delta while the chain from the previous publish is
// intact.
func (r *Anonymizer) Commit() (Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	pub, err := r.pub.Publish(func(a *lbs.Assignment) error {
		if rep := verify.Policy(a, r.k); !rep.OK() {
			return fmt.Errorf("rolling: refusing to publish: %s", rep.Problems[0])
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	r.current.Store(pub.Policy)
	r.epoch.Add(1)
	st := Stats{
		Epoch:         r.epoch.Load(),
		PendingMoves:  r.pending,
		PolicyCost:    pub.Policy.Cost(),
		CommitTime:    time.Since(start),
		RowsExtracted: pub.RowsExtracted,
		CloaksChanged: pub.CloaksChanged,
		Delta:         pub.Delta,
	}
	r.pending = 0
	return st, nil
}
