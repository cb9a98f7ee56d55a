package attacker

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// exampleDB is a 5-user snapshot with the structure of Table I: two users
// close together in the southwest, a third alone in the northwest, two in
// the east.
func exampleDB(t *testing.T) *location.DB {
	t.Helper()
	db, err := location.FromRecords([]location.Record{
		{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}},
		{UserID: "Bob", Loc: geo.Point{X: 1, Y: 2}},
		{UserID: "Carol", Loc: geo.Point{X: 1, Y: 5}},
		{UserID: "Sam", Loc: geo.Point{X: 5, Y: 1}},
		{UserID: "Tom", Loc: geo.Point{X: 6, Y: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// kInsidePolicy mirrors Example 1: Alice and Bob get the tight southwest
// cloak, Carol (an outlier) is cloaked by the whole map (which contains
// everyone, so the policy is 2-inside), Sam and Tom share the east half.
func kInsidePolicy(t *testing.T, db *location.DB) *lbs.Assignment {
	t.Helper()
	sw := geo.NewRect(0, 0, 2, 4)
	all := geo.NewRect(0, 0, 8, 8)
	east := geo.NewRect(4, 0, 8, 8)
	a, err := lbs.NewAssignment(db, []geo.Rect{sw, sw, all, east, east})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestExample1PolicyAwareBreach(t *testing.T) {
	db := exampleDB(t)
	pol := kInsidePolicy(t, db)

	// Proposition 2: the 2-inside policy is 2-anonymous against
	// policy-unaware attackers — every used cloak covers >= 2 users.
	if !IsKAnonymous(pol, 2, PolicyUnaware) {
		t.Fatal("2-inside policy should resist policy-unaware attackers")
	}

	// Proposition 3 / Example 6: a policy-aware attacker who observes
	// Carol's cloak can reverse-engineer only Carol.
	breaches, minAnon := Audit(pol, 2, PolicyAware)
	if len(breaches) != 1 {
		t.Fatalf("expected exactly one breach, got %v", breaches)
	}
	if minAnon != 1 {
		t.Fatalf("min anonymity = %d, want 1", minAnon)
	}
	b := breaches[0]
	if len(b.Candidates) != 1 || b.Candidates[0] != "Carol" {
		t.Fatalf("breach candidates = %v, want [Carol]", b.Candidates)
	}
	if b.String() == "" {
		t.Fatal("breach should render")
	}
}

// Example 8's shape: merging Carol with Alice and Bob restores anonymity
// against policy-aware attackers at the price of a larger cloak.
func TestPolicyAwareSafePolicy(t *testing.T) {
	db := exampleDB(t)
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(4, 0, 8, 8)
	pol, err := lbs.NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	if !IsKAnonymous(pol, 2, PolicyAware) {
		t.Fatal("grouped policy should resist policy-aware attackers")
	}
	// Proposition 1: policy-aware anonymity implies policy-unaware.
	if !IsKAnonymous(pol, 2, PolicyUnaware) {
		t.Fatal("Proposition 1 violated")
	}
	if IsKAnonymous(pol, 4, PolicyAware) {
		t.Fatal("2-member group passed as 4-anonymous")
	}
}

func TestCandidates(t *testing.T) {
	db := exampleDB(t)
	pol := kInsidePolicy(t, db)
	all := geo.NewRect(0, 0, 8, 8)

	unaware := Candidates(pol, all, PolicyUnaware)
	if len(unaware) != 5 {
		t.Fatalf("policy-unaware candidates for the full map = %v", unaware)
	}
	aware := Candidates(pol, all, PolicyAware)
	if len(aware) != 1 || aware[0] != "Carol" {
		t.Fatalf("policy-aware candidates = %v, want [Carol]", aware)
	}
	// The policy-aware candidate set is always a subset of the
	// policy-unaware one for masking policies.
	inUnaware := make(map[string]bool)
	for _, u := range unaware {
		inUnaware[u] = true
	}
	for _, u := range aware {
		if !inUnaware[u] {
			t.Fatalf("policy-aware candidate %q not covered by the cloak", u)
		}
	}
}

func TestAuditEmptyAssignment(t *testing.T) {
	db := location.New(0)
	pol, err := lbs.NewAssignment(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	breaches, minAnon := Audit(pol, 2, PolicyAware)
	if len(breaches) != 0 || minAnon != 0 {
		t.Fatalf("empty audit: %v %d", breaches, minAnon)
	}
}

func TestAwarenessString(t *testing.T) {
	if PolicyAware.String() != "policy-aware" || PolicyUnaware.String() != "policy-unaware" {
		t.Fatal("awareness names wrong")
	}
	if Awareness(9).String() == "" {
		t.Fatal("unknown awareness should still render")
	}
}

// Definition 6 witness construction: when Audit reports no breach, k PREs
// with pairwise distinct senders per request can be explicitly constructed;
// when it reports a breach, they cannot.
func TestDefinitionSixWitness(t *testing.T) {
	db := exampleDB(t)
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(4, 0, 8, 8)
	pol, err := lbs.NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	// Build the k PRE functions: for each issued cloak, the i-th PRE maps
	// any request with that cloak to the i-th candidate sender.
	pres := make([]map[geo.Rect]string, k)
	for i := range pres {
		pres[i] = make(map[geo.Rect]string)
	}
	for _, g := range pol.Groups() {
		cand := Candidates(pol, g.Cloak, PolicyAware)
		if len(cand) < k {
			t.Fatalf("cannot construct %d PREs for cloak %v", k, g.Cloak)
		}
		for i := 0; i < k; i++ {
			pres[i][g.Cloak] = cand[i]
		}
	}
	// Verify: each PRE maps every request to a valid service request that
	// the policy maps back to the observed cloak, and senders differ
	// pairwise per request.
	for _, g := range pol.Groups() {
		for i := 0; i < k; i++ {
			u := pres[i][g.Cloak]
			loc, err := db.Lookup(u)
			if err != nil {
				t.Fatalf("PRE %d yields invalid service request for %v", i, g.Cloak)
			}
			back, err := pol.CloakOf(u)
			if err != nil || back != g.Cloak {
				t.Fatalf("PRE %d not reproduced by the policy: %v vs %v", i, back, g.Cloak)
			}
			_ = loc
			for j := 0; j < i; j++ {
				if pres[j][g.Cloak] == u {
					t.Fatalf("PREs %d and %d collide on %v", i, j, g.Cloak)
				}
			}
		}
	}
}

// Every count the survey serves — GroupSizes, Audit's minimum and
// breaches, Count of an issued and of an unissued rectangle — must agree
// with a Candidates scan, under both attacker classes, on the paper's
// Example 1 and on the degenerate snapshots where a grid over the tight
// population bounds is a single cell, has nothing to index, or cannot be
// built at all.
func TestSurveyMatchesCandidates(t *testing.T) {
	assign := func(recs []location.Record, cloaks []geo.Rect) *lbs.Assignment {
		t.Helper()
		db, err := location.FromRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		a, err := lbs.NewAssignment(db, cloaks)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	at := func(id string, x, y int32) location.Record {
		return location.Record{UserID: id, Loc: geo.Point{X: x, Y: y}}
	}
	spot := geo.NewRect(7, 7, 7, 7) // closed: exactly the point (7,7)
	all := geo.NewRect(0, 0, 16, 16)
	edge := geo.Rect{MinX: 9, MinY: 0, MaxX: math.MaxInt32, MaxY: 8}
	cases := []struct {
		name     string
		pol      *lbs.Assignment
		fallback bool // no grid: counts come from scans
	}{
		{name: "example 1", pol: kInsidePolicy(t, exampleDB(t))},
		{name: "empty DB", pol: assign(nil, nil)},
		{name: "one user", pol: assign([]location.Record{at("solo", 7, 7)}, []geo.Rect{spot})},
		{name: "all users co-located, one cloak", pol: assign(
			[]location.Record{at("a", 7, 7), at("b", 7, 7), at("c", 7, 7)}, []geo.Rect{spot, spot, spot})},
		{name: "all users co-located, cloaks of different sizes", pol: assign(
			[]location.Record{at("a", 7, 7), at("b", 7, 7), at("c", 7, 7)}, []geo.Rect{spot, all, spot})},
		{name: "every user alone in its cloak", pol: assign(
			[]location.Record{at("a", 1, 1), at("b", 2, 2), at("c", 12, 3), at("d", 5, 14)},
			[]geo.Rect{geo.NewRect(1, 1, 1, 1), geo.NewRect(0, 0, 2, 2), geo.NewRect(12, 3, 12, 3), geo.NewRect(4, 13, 6, 15)})},
		{name: "coordinate at the int32 limit", fallback: true, pol: assign(
			[]location.Record{at("a", 9, 1), at("b", math.MaxInt32, 5), at("c", 2, 2)},
			[]geo.Rect{edge, edge, geo.NewRect(0, 0, 4, 4)})},
	}
	for _, tc := range cases {
		pol, groups := tc.pol, tc.pol.Groups()
		survey := SurveyOf(pol)
		if got := survey.IndexErr() != nil; got != tc.fallback {
			t.Errorf("%s: grid fallback = %v (%v), want %v", tc.name, got, survey.IndexErr(), tc.fallback)
		}
		for _, aw := range []Awareness{PolicyAware, PolicyUnaware} {
			sizes := GroupSizes(pol, aw)
			if len(sizes) != len(groups) {
				t.Fatalf("%s, %v: %d sizes for %d groups", tc.name, aw, len(sizes), len(groups))
			}
			wantMin := pol.Len() + 1
			if pol.Len() == 0 {
				wantMin = 0
			}
			var wantBreaches []Breach
			for i, g := range groups {
				cands := Candidates(pol, g.Cloak, aw)
				if sizes[i] != len(cands) || survey.Count(g.Cloak, aw) != len(cands) {
					t.Errorf("%s, %v: cloak %v sized %d by GroupSizes, %d by Count, %d by Candidates",
						tc.name, aw, g.Cloak, sizes[i], survey.Count(g.Cloak, aw), len(cands))
				}
				wantMin = min(wantMin, len(cands))
				if len(cands) < 2 {
					wantBreaches = append(wantBreaches, Breach{Cloak: g.Cloak, Candidates: cands})
				}
			}
			if breaches, minAudit := Audit(pol, 2, aw); minAudit != wantMin || !reflect.DeepEqual(breaches, wantBreaches) {
				t.Errorf("%s, %v: Audit = %v, min %d; Candidates gives %v, min %d",
					tc.name, aw, breaches, minAudit, wantBreaches, wantMin)
			}
			// A rectangle the policy does not issue.
			other := geo.NewRect(1, 1, 13, 7)
			if got, want := survey.Count(other, aw), len(Candidates(pol, other, aw)); got != want {
				t.Errorf("%s, %v: unissued %v counted %d, Candidates finds %d", tc.name, aw, other, got, want)
			}
		}
	}
}

// The audit layer runs attacker functions from concurrent request
// goroutines over one shared assignment; under -race this test proves
// read-only concurrent use is safe.
func TestConcurrentAuditAndCandidates(t *testing.T) {
	db := exampleDB(t)
	pol := kInsidePolicy(t, db)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			aw := Awareness(g % 2)
			for i := 0; i < 100; i++ {
				if _, min := Audit(pol, 2, aw); min < 1 {
					t.Errorf("concurrent Audit min = %d", min)
					return
				}
				cloak := pol.CloakAt(i % pol.Len())
				if len(Candidates(pol, cloak, aw)) < 1 {
					t.Error("concurrent Candidates empty")
					return
				}
				GroupSizes(pol, aw)
			}
		}(g)
	}
	wg.Wait()
}
