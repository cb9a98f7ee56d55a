package verify

import (
	"math/rand"
	"strings"
	"testing"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

func optimalPolicy(t *testing.T, n, k int, seed int64) *lbs.Assignment {
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
	return pol
}

func TestVerifyOptimalPolicyPasses(t *testing.T) {
	const k = 6
	pol := optimalPolicy(t, 120, k, 1)
	r := Policy(pol, k)
	if !r.OK() {
		t.Fatalf("optimal policy failed verification: %v", r.Problems)
	}
	if !r.Masking || !r.PolicyAware || !r.PolicyUnaware {
		t.Fatalf("flags wrong: %+v", r)
	}
	if r.MinAware < k || r.MinUnaware < r.MinAware {
		t.Fatalf("min anonymity wrong: aware=%d unaware=%d", r.MinAware, r.MinUnaware)
	}
	// The k PREs of Definition 6 exist: every issued cloak has at least k
	// distinct policy-aware candidates.
	for _, g := range pol.Groups() {
		if cands := attacker.Candidates(pol, g.Cloak, attacker.PolicyAware); len(cands) < k {
			t.Fatalf("cloak %v admits only %d PREs, want %d", g.Cloak, len(cands), k)
		}
	}
	if !strings.Contains(r.String(), "OK") {
		t.Fatalf("report string: %s", r)
	}
}

func TestVerifyDetectsBrokenPolicy(t *testing.T) {
	db, err := location.FromRecords([]location.Record{
		{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}},
		{UserID: "Bob", Loc: geo.Point{X: 1, Y: 2}},
		{UserID: "Carol", Loc: geo.Point{X: 6, Y: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := geo.NewRect(0, 0, 4, 4)
	all := geo.NewRect(0, 0, 8, 8)
	pol, err := lbs.NewAssignment(db, []geo.Rect{sw, sw, all})
	if err != nil {
		t.Fatal(err)
	}
	r := Policy(pol, 2)
	if r.OK() {
		t.Fatal("breached policy passed verification")
	}
	if r.PolicyAware {
		t.Fatal("Carol's singleton group not detected")
	}
	found := false
	for _, p := range r.Problems {
		if strings.Contains(p, "Carol") {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems do not name Carol: %v", r.Problems)
	}
}

func TestVerifyRejectsBadK(t *testing.T) {
	pol := optimalPolicy(t, 20, 2, 3)
	r := Policy(pol, 0)
	if r.OK() {
		t.Fatal("k=0 passed verification")
	}
}

func TestVerifyEmptyAssignment(t *testing.T) {
	db := location.New(0)
	pol, err := lbs.NewAssignment(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := Policy(pol, 2)
	if !r.OK() {
		t.Fatalf("empty policy failed: %v", r.Problems)
	}
}
