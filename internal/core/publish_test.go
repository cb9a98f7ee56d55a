package core

import (
	"errors"
	"math/rand"
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/tree"
)

const pubSide = int32(1 << 10)

var pubBounds = geo.NewRect(0, 0, pubSide, pubSide)

// newTestPublisher builds a chain over n random users and publishes its
// first (full) policy.
func newTestPublisher(t *testing.T, rng *rand.Rand, n, k int, kind tree.Kind) (*Publisher, Publication) {
	t.Helper()
	anon, err := NewAnonymizer(dbFor(t, randPts(rng, n, pubSide)), pubBounds, AnonymizerOptions{K: k, Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPublisher(anon)
	first, err := p.Publish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Delta || first.CloaksChanged != n || p.Anchored() != first.Policy {
		t.Fatalf("first publish: delta %v, %d cloaks changed, anchored %v", first.Delta, first.CloaksChanged, p.Anchored() == first.Policy)
	}
	return p, first
}

// moveRandom stages j random moves.
func moveRandom(t *testing.T, p *Publisher, rng *rand.Rand, n, j int) {
	t.Helper()
	for ; j > 0; j-- {
		if err := p.Move(rng.Intn(n), geo.Point{X: rng.Int31n(pubSide), Y: rng.Int31n(pubSide)}); err != nil {
			t.Fatal(err)
		}
	}
}

// publish publishes and fails the test on error.
func publish(t *testing.T, p *Publisher) Publication {
	t.Helper()
	pub, err := p.Publish(nil)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// TestPublisherDeltaTipMatchesFromScratch is the chain's parity oracle:
// over random move sequences (a user may move several times between
// publishes), every publish after the first rides the delta path, and
// the chain tip equals a from-scratch policy over the same snapshot, cloak
// for cloak.
func TestPublisherDeltaTipMatchesFromScratch(t *testing.T) {
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(7300 + seed))
			n := 80 + rng.Intn(120)
			k := 2 + rng.Intn(5)
			p, _ := newTestPublisher(t, rng, n, k, kind)
			for round := 0; round < 10; round++ {
				moveRandom(t, p, rng, n, 1+rng.Intn(12))
				pub := publish(t, p)
				if !pub.Delta || pub.Policy.Delta() == nil || p.Anchored() != pub.Policy {
					t.Fatalf("kind %v seed %d round %d: publish delta %v, anchored %v",
						kind, seed, round, pub.Delta, p.Anchored() == pub.Policy)
				}
				fresh, err := NewAnonymizer(pub.Policy.DB().Clone(), pubBounds, AnonymizerOptions{K: k, Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Policy()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if got := pub.Policy.CloakAt(i); got != want.CloakAt(i) {
						t.Fatalf("kind %v seed %d round %d: cloak %d = %v, from-scratch %v",
							kind, seed, round, i, got, want.CloakAt(i))
					}
				}
			}
		}
	}
}

// TestPublisherFailedMoveForcesFull: a failed Move may leave the live
// state half-updated, so the next publish goes out in full; the one after
// it is a delta again.
func TestPublisherFailedMoveForcesFull(t *testing.T) {
	const n, k = 100, 4
	rng := rand.New(rand.NewSource(11))
	p, _ := newTestPublisher(t, rng, n, k, tree.Binary)
	if err := p.Move(1, geo.Point{X: pubSide * 4, Y: pubSide * 4}); err == nil {
		t.Fatal("out-of-bounds move accepted")
	}
	if p.Anchored() != nil {
		t.Fatal("failed Move left the chain anchored")
	}
	// Re-sync the half-updated record with a valid move.
	if err := p.Move(1, geo.Point{X: 10, Y: 10}); err != nil {
		t.Fatal(err)
	}
	if pub := publish(t, p); pub.Delta || pub.CloaksChanged != n {
		t.Fatalf("publish after a failed Move: delta %v, %d cloaks changed", pub.Delta, pub.CloaksChanged)
	}
	moveRandom(t, p, rng, n, 3)
	if pub := publish(t, p); !pub.Delta {
		t.Fatal("chain did not re-anchor after the full publish")
	}
}

// TestPublisherMismatchSelfHeals pins ApplyDelta's validation as the
// safety net: when the anchored parent silently disagrees with the matrix
// baseline, the publish goes out in full (no error, no corrupt policy) and
// the chain re-anchors on it.
func TestPublisherMismatchSelfHeals(t *testing.T) {
	const n, k = 100, 4
	rng := rand.New(rand.NewSource(12))
	p, first := newTestPublisher(t, rng, n, k, tree.Binary)

	// Anchor on an assignment whose record 0 sits elsewhere inside its
	// cloak: the staged From for record 0 won't match this parent.
	bad := first.Policy.DB().Clone()
	cl := first.Policy.CloakAt(0)
	other := geo.Point{X: cl.MinX, Y: cl.MinY}
	if other == bad.At(0).Loc {
		other = geo.Point{X: cl.MaxX, Y: cl.MaxY}
	}
	bad.MoveAt(0, other)
	corrupt, err := lbs.NewAssignment(bad, first.Policy.Cloaks())
	if err != nil {
		t.Fatal(err)
	}
	p.Anchor(corrupt)

	to := geo.Point{X: 12, Y: 12}
	if err := p.Move(0, to); err != nil {
		t.Fatal(err)
	}
	pub := publish(t, p)
	if pub.Delta || pub.CloaksChanged != n {
		t.Fatalf("mismatched parent published delta %v, %d cloaks changed", pub.Delta, pub.CloaksChanged)
	}
	if got := pub.Policy.DB().At(0).Loc; got != to {
		t.Fatalf("self-healed publish has record 0 at %v", got)
	}
	if p.Anchored() != pub.Policy {
		t.Fatal("self-healed publish did not re-anchor the chain")
	}
	moveRandom(t, p, rng, n, 3)
	if pub := publish(t, p); !pub.Delta {
		t.Fatal("chain did not ride a delta after self-healing")
	}
}

// TestPublisherGateRefusalUnanchors: a publish the gate refuses returns
// the gate's error and no policy, leaves the chain unanchored, and does
// not disturb the caller's previous publication; the next publish goes out
// in full and passes.
func TestPublisherGateRefusalUnanchors(t *testing.T) {
	const n, k = 100, 4
	rng := rand.New(rand.NewSource(13))
	p, first := newTestPublisher(t, rng, n, k, tree.Binary)
	prev := first.Policy.Cloaks()
	prevCost := first.Policy.Cost()

	moveRandom(t, p, rng, n, 5)
	refused := errors.New("refused")
	var gated *lbs.Assignment
	pub, err := p.Publish(func(a *lbs.Assignment) error {
		gated = a
		return refused
	})
	if !errors.Is(err, refused) || pub.Policy != nil {
		t.Fatalf("refused publish returned %v, policy %v", err, pub.Policy)
	}
	if gated == nil || gated.Delta() == nil {
		t.Fatal("gate did not see the delta candidate")
	}
	if p.Anchored() != nil {
		t.Fatal("gate refusal left the chain anchored")
	}
	for i, c := range first.Policy.Cloaks() {
		if c != prev[i] {
			t.Fatalf("previous publication changed at cloak %d", i)
		}
	}
	if first.Policy.Cost() != prevCost {
		t.Fatal("previous publication's cost changed")
	}

	next, err := p.Publish(func(a *lbs.Assignment) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if next.Delta || next.CloaksChanged != n || p.Anchored() != next.Policy {
		t.Fatalf("publish after refusal: delta %v, %d cloaks changed", next.Delta, next.CloaksChanged)
	}
}

// TestPublisherTableStaysBounded drives 1 200 delta publishes over one
// population. The chain appends to its cloak table every cloak the table
// does not hold, and entries no record holds any more stay until a
// compaction: the table must never exceed twice the distinct cloaks its
// records hold plus one batch's changes, however long the chain runs.
func TestPublisherTableStaysBounded(t *testing.T) {
	const n, k, publishes = 300, 4, 1200
	rng := rand.New(rand.NewSource(4700))
	p, first := newTestPublisher(t, rng, n, k, tree.Binary)
	appended, largest := 0, first.Policy.TableLen()
	for round := range publishes {
		moveRandom(t, p, rng, n, 1+rng.Intn(6))
		prev := p.Anchored().TableLen()
		pub := publish(t, p)
		if !pub.Delta {
			t.Fatalf("round %d: publish left the delta path", round)
		}
		got, live := pub.Policy.TableLen(), len(pub.Policy.Groups())
		if limit := 2*live + pub.CloaksChanged; got > limit {
			t.Fatalf("round %d: table of %d entries for %d cloaks and %d changes, bound %d",
				round, got, live, pub.CloaksChanged, limit)
		}
		appended += max(0, got-prev)
		largest = max(largest, got)
	}
	if appended <= 2*largest {
		t.Fatalf("the chain appended only %d entries (largest table %d): no compaction was needed", appended, largest)
	}
	t.Logf("%d publishes: %d entries appended, largest table %d", publishes, appended, largest)
}
