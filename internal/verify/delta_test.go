package verify

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// maintainedDelta runs one move batch through the real delta pipeline —
// matrix maintenance, ExtractDelta, ApplyDelta against a rebound parent —
// and returns the delta-derived assignment.
func maintainedDelta(t *testing.T, n, k int, seed int64) *lbs.Assignment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := location.New(n)
	for i := 0; i < n; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+(i/260)%26)) + string(rune('0'+(i/7)%10))
		if err := db.Add(id, geo.Point{X: rng.Int31n(256), Y: rng.Int31n(256)}); err != nil {
			t.Fatal(err)
		}
	}
	anon, err := core.NewAnonymizer(db, geo.NewRect(0, 0, 256, 256), core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := lbs.NewAssignment(pol.DB().Clone(), pol.Cloaks())
	if err != nil {
		t.Fatal(err)
	}
	var mvs []lbs.Move
	for j := 0; j < 6; j++ {
		i := rng.Intn(n)
		to := geo.Point{X: rng.Int31n(256), Y: rng.Int31n(256)}
		mvs = append(mvs, lbs.Move{Index: i, From: db.At(i).Loc, To: to})
		if err := anon.Move(i, to); err != nil {
			t.Fatal(err)
		}
	}
	anon.Refresh()
	changes, _, err := anon.Matrix().ExtractDelta()
	if err != nil {
		t.Fatal(err)
	}
	child, err := parent.ApplyDelta(mvs, changes)
	if err != nil {
		t.Fatal(err)
	}
	return child
}

func TestVerifyDeltaOnMaintainedPolicy(t *testing.T) {
	const k = 6
	child := maintainedDelta(t, 120, k, 3)
	r := Delta(child, k)
	if !r.OK() {
		t.Fatalf("delta-derived policy failed delta verification: %v", r.Problems)
	}
	if !r.DeltaScoped {
		t.Fatal("report not marked delta-scoped")
	}
	if !r.Masking || !r.PolicyAware || !r.PolicyUnaware {
		t.Fatalf("flags wrong: %+v", r)
	}
	// The same assignment must also survive the full first-principles
	// verification (the one every publish path runs).
	if full := Policy(child, k); !full.OK() {
		t.Fatalf("delta-derived policy failed full verification: %v", full.Problems)
	}
}

func TestVerifyDeltaFallsBackToFull(t *testing.T) {
	const k = 6
	pol := optimalPolicy(t, 120, k, 4)
	r := Delta(pol, k)
	if r.DeltaScoped {
		t.Fatal("from-scratch assignment verified delta-scoped")
	}
	if !r.OK() || !reflect.DeepEqual(r, Policy(pol, k)) {
		t.Fatalf("fallback did not run the full verification: %v %q", r, r.Problems)
	}
}

// TestVerifyDeltaCatchesShrunkCloak pins the negative case: a delta that
// rewrites one user's cloak to a singleton must trip both attacker checks
// in the delta-scoped pass.
func TestVerifyDeltaCatchesShrunkCloak(t *testing.T) {
	db, err := location.FromRecords([]location.Record{
		{UserID: "a", Loc: geo.Point{X: 0, Y: 0}},
		{UserID: "b", Loc: geo.Point{X: 0, Y: 1}},
		{UserID: "c", Loc: geo.Point{X: 10, Y: 10}},
		{UserID: "d", Loc: geo.Point{X: 10, Y: 11}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pair1 := geo.NewRect(0, 0, 0, 1)
	pair2 := geo.NewRect(10, 10, 10, 11)
	parent, err := lbs.NewAssignment(db, []geo.Rect{pair1, pair1, pair2, pair2})
	if err != nil {
		t.Fatal(err)
	}
	if r := Policy(parent, 2); !r.OK() {
		t.Fatalf("pairing baseline should verify: %v", r.Problems)
	}
	// Rewrite b's cloak to the singleton containing only her location: the
	// delta still masks, so ApplyDelta accepts it — verification is what
	// must catch the anonymity breach.
	single := geo.NewRect(0, 1, 0, 1)
	child, err := parent.ApplyDelta(nil, []lbs.CloakChange{{Index: 1, Old: pair1, New: single}})
	if err != nil {
		t.Fatal(err)
	}
	r := Delta(child, 2)
	if r.OK() {
		t.Fatal("singleton cloak passed delta verification")
	}
	if !r.DeltaScoped || r.PolicyAware || r.PolicyUnaware {
		t.Fatalf("flags wrong: %+v", r)
	}
	if r.MinAware != 1 || r.MinUnaware != 1 {
		t.Fatalf("min candidates aware=%d unaware=%d, want 1/1", r.MinAware, r.MinUnaware)
	}
	found := false
	for _, p := range r.Problems {
		if strings.Contains(p, "policy-aware") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no policy-aware problem reported: %v", r.Problems)
	}
}
