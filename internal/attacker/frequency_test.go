package attacker

import (
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

func freqFixture(t *testing.T) (*lbs.Assignment, *lbs.RecordingProvider, *lbs.CSP) {
	t.Helper()
	db, err := location.FromRecords([]location.Record{
		{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}},
		{UserID: "Bob", Loc: geo.Point{X: 1, Y: 2}},
		{UserID: "Carol", Loc: geo.Point{X: 1, Y: 5}},
		{UserID: "Sam", Loc: geo.Point{X: 5, Y: 1}},
		{UserID: "Tom", Loc: geo.Point{X: 6, Y: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(4, 0, 8, 8)
	pol, err := lbs.NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	store, err := lbs.NewPOIStore([]lbs.POI{
		{ID: "x", Loc: geo.Point{X: 3, Y: 3}, Category: "clinic"},
	}, geo.NewRect(0, 0, 8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	provider := lbs.NewRecordingProvider(lbs.NewPOIProvider(store))
	return pol, provider, lbs.NewCSP(pol, provider)
}

var clinicParams = []lbs.Param{{Name: "cat", Value: "clinic"}}

// Without the cache, all three westerners asking the same sensitive query
// are exposed by counting: 3 requests from a 3-resident cloak.
func TestFrequencyAttackExposesWithoutCache(t *testing.T) {
	pol, _, _ := freqFixture(t)
	// Simulate a cache-less CSP: forward every anonymized request.
	var log []lbs.AnonymizedRequest
	for i, u := range []string{"Alice", "Bob", "Carol"} {
		cloak, err := pol.CloakOf(u)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, lbs.AnonymizedRequest{RID: uint64(i), Cloak: cloak, Params: clinicParams})
	}
	findings := FrequencyAttack(pol, log)
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	f := findings[0]
	if !f.Exposed || f.Requests != 3 || f.Residents != 3 {
		t.Fatalf("expected full exposure, got %+v", f)
	}
	if f.String() == "" {
		t.Fatal("finding should render")
	}
}

// With the CSP cache in the loop, the provider log holds one request per
// (cloak, params), so the counting attack finds nothing.
func TestCacheDefeatsFrequencyAttack(t *testing.T) {
	pol, provider, csp := freqFixture(t)
	db := pol.DB()
	for _, u := range []string{"Alice", "Bob", "Carol"} {
		loc, err := db.Lookup(u)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := csp.Serve(lbs.ServiceRequest{UserID: u, Loc: loc, Params: clinicParams}); err != nil {
			t.Fatal(err)
		}
	}
	log := provider.Log()
	if len(log) != 1 {
		t.Fatalf("provider saw %d requests, cache should dedupe to 1", len(log))
	}
	findings := FrequencyAttack(pol, log)
	for _, f := range findings {
		if f.Exposed {
			t.Fatalf("cache failed to prevent exposure: %v", f)
		}
	}
}

// A single request from a 3-resident cloak discloses nothing by counting.
func TestFrequencyAttackQuietOnLowCounts(t *testing.T) {
	pol, _, _ := freqFixture(t)
	cloak, err := pol.CloakOf("Alice")
	if err != nil {
		t.Fatal(err)
	}
	findings := FrequencyAttack(pol, []lbs.AnonymizedRequest{
		{RID: 1, Cloak: cloak, Params: clinicParams},
	})
	if len(findings) != 0 {
		t.Fatalf("low-count log produced findings: %v", findings)
	}
}

// Different parameter vectors are counted separately.
func TestFrequencyAttackSeparatesParams(t *testing.T) {
	pol, _, _ := freqFixture(t)
	cloak, err := pol.CloakOf("Alice")
	if err != nil {
		t.Fatal(err)
	}
	other := []lbs.Param{{Name: "cat", Value: "gas"}}
	log := []lbs.AnonymizedRequest{
		{RID: 1, Cloak: cloak, Params: clinicParams},
		{RID: 2, Cloak: cloak, Params: other},
		{RID: 3, Cloak: cloak, Params: other},
	}
	findings := FrequencyAttack(pol, log)
	for _, f := range findings {
		if f.Exposed {
			t.Fatalf("mixed-parameter log should not fully expose: %v", f)
		}
	}
}
