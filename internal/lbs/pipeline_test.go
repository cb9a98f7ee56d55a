package lbs

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"policyanon/internal/geo"
)

// pipelineFixture wires a 5-user policy to a small POI provider behind a
// recording wrapper, so tests can read what the provider saw.
func pipelineFixture(t *testing.T) (*CSP, *RecordingProvider, *POIProvider) {
	t.Helper()
	db := tableI(t)
	west := geo.NewRect(0, 0, 2, 8)
	east := geo.NewRect(2, 0, 8, 8)
	pol, err := NewAssignment(db, []geo.Rect{west, west, west, east, east})
	if err != nil {
		t.Fatal(err)
	}
	pois := []POI{
		{ID: "luigi", Loc: geo.Point{X: 1, Y: 3}, Category: "ital"},
		{ID: "mario", Loc: geo.Point{X: 6, Y: 6}, Category: "ital"},
		{ID: "thai1", Loc: geo.Point{X: 4, Y: 4}, Category: "thai"},
	}
	store, err := NewPOIStore(pois, geo.NewRect(0, 0, 8, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	provider := NewPOIProvider(store)
	seen := NewRecordingProvider(provider)
	return NewCSP(pol, seen), seen, provider
}

func TestCSPServeEndToEnd(t *testing.T) {
	csp, provider, _ := pipelineFixture(t)
	sr := ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1}, Params: []Param{{Name: "cat", Value: "ital"}}}
	ar, answer, err := csp.Serve(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !ar.Masks(sr) {
		t.Fatalf("forwarded request %+v does not mask the origin", ar)
	}
	// The provider's log contains no identity and no precise location.
	log := provider.Log()
	if len(log) != 1 {
		t.Fatalf("provider saw %d requests", len(log))
	}
	if log[0].Cloak.Area() <= 1 {
		t.Fatal("provider learned a degenerate cloak")
	}
	// The client-side filter recovers Alice's true nearest italian POI.
	best, ok := FilterNearest(answer, sr.Loc)
	if !ok || best.ID != "luigi" {
		t.Fatalf("filtered answer = %+v, want luigi", best)
	}
}

func TestCSPCacheSuppressesDuplicates(t *testing.T) {
	csp, provider, _ := pipelineFixture(t)
	params := []Param{{Name: "cat", Value: "ital"}}
	// Alice, Bob and Carol share the same cloak: the provider must see a
	// single request for the three, per the Section VII cache.
	for _, u := range []struct {
		id string
		p  geo.Point
	}{{"Alice", geo.Point{X: 1, Y: 1}}, {"Bob", geo.Point{X: 1, Y: 2}}, {"Carol", geo.Point{X: 1, Y: 4}}} {
		if _, _, err := csp.Serve(ServiceRequest{UserID: u.id, Loc: u.p, Params: params}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(provider.Log()); got != 1 {
		t.Fatalf("provider saw %d requests, want 1 (cache)", got)
	}
	hits, misses := csp.CacheStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d", hits, misses)
	}
	// Different parameters bypass the cache entry.
	if _, _, err := csp.Serve(ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 1, Y: 1},
		Params: []Param{{Name: "cat", Value: "thai"}}}); err != nil {
		t.Fatal(err)
	}
	if got := len(provider.Log()); got != 2 {
		t.Fatalf("provider saw %d requests, want 2", got)
	}
	// Flushing reports the suppressed round-trips and resets the epoch.
	if sup := csp.FlushCache(); sup != 2 {
		t.Fatalf("FlushCache reported %d suppressed, want 2", sup)
	}
	if _, _, err := csp.Serve(ServiceRequest{UserID: "Bob", Loc: geo.Point{X: 1, Y: 2}, Params: params}); err != nil {
		t.Fatal(err)
	}
	if got := len(provider.Log()); got != 3 {
		t.Fatalf("after flush the provider should see a fresh request, saw %d", got)
	}
}

func TestCSPRejectsInvalidRequests(t *testing.T) {
	csp, _, _ := pipelineFixture(t)
	if _, _, err := csp.Serve(ServiceRequest{UserID: "Eve", Loc: geo.Point{X: 1, Y: 1}}); err == nil {
		t.Fatal("unknown user served")
	}
	if _, _, err := csp.Serve(ServiceRequest{UserID: "Alice", Loc: geo.Point{X: 5, Y: 5}}); err == nil {
		t.Fatal("spoofed location served")
	}
	empty := NewCSP(nil, nil)
	if _, _, err := empty.Serve(ServiceRequest{UserID: "Alice"}); err == nil {
		t.Fatal("CSP without policy served")
	}
}

func TestProviderBilling(t *testing.T) {
	csp, _, provider := pipelineFixture(t)
	if _, _, err := csp.Serve(ServiceRequest{UserID: "Sam", Loc: geo.Point{X: 3, Y: 1},
		Params: []Param{{Name: "cat", Value: "ital"}}}); err != nil {
		t.Fatal(err)
	}
	b := provider.Billing()
	if b["ital"] == 0 {
		t.Fatalf("billing = %v, want ital answers counted", b)
	}
}

func TestRequestIDsAreUnique(t *testing.T) {
	csp, _, _ := pipelineFixture(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 5; i++ {
		ar, _, err := csp.Serve(ServiceRequest{UserID: "Tom", Loc: geo.Point{X: 4, Y: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if seen[ar.RID] {
			t.Fatalf("request id %d reused", ar.RID)
		}
		seen[ar.RID] = true
	}
}

// TestProviderRangeParameter: only a finite, non-negative radius is a
// range query; everything else is the provider's "bad range parameter",
// and no finite radius, however absurd, can trip the cell arithmetic.
func TestProviderRangeParameter(t *testing.T) {
	_, _, provider := pipelineFixture(t)
	cloak := geo.NewRect(0, 0, 2, 8)
	for _, tc := range []struct {
		value string
		bad   bool
		want  int // "ital" POIs answered
	}{
		{"NaN", true, 0}, {"nan", true, 0}, {"Inf", true, 0}, {"+Inf", true, 0}, {"-Inf", true, 0},
		{"infinity", true, 0}, {"1e999", true, 0}, {"-1", true, 0}, {"-1e300", true, 0}, {"two", true, 0},
		{"0", false, 1}, {"-0", false, 1}, {"0.5", false, 1}, {"3", false, 1},
		{"8", false, 2}, {"1e300", false, 2}, {"1.7976931348623157e308", false, 2},
	} {
		got, err := provider.Answer(AnonymizedRequest{Cloak: cloak,
			Params: []Param{{Name: "cat", Value: "ital"}, {Name: "range", Value: tc.value}}})
		if tc.bad {
			if err == nil || !strings.Contains(err.Error(), "bad range parameter") {
				t.Errorf("range=%s: got %v, %v; want a bad range parameter error", tc.value, got, err)
			}
			continue
		}
		if err != nil || len(got) != tc.want {
			t.Errorf("range=%s: got %v, %v; want %d POIs", tc.value, got, err, tc.want)
		}
	}
}

// TestProviderConcurrentAnswers: with no lock across the scan, billing
// must still total exactly what was answered, and a recording wrapper must
// hold every request exactly once. Run with -race.
func TestProviderConcurrentAnswers(t *testing.T) {
	store := seededStore(t, 8, 2000, 1024, 0)
	provider := NewPOIProvider(store)
	seen := NewRecordingProvider(provider)
	const workers, each = 8, 200
	cats := []string{"gas", "rest", "hosp", "rare"}
	answered := make([]map[string]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			answered[w] = make(map[string]int64)
			for i := 0; i < each; i++ {
				rid := uint64(w*each + i)
				x, y := int32(rid*37%900), int32(rid*91%900)
				cat := cats[i%len(cats)]
				params := []Param{{Name: "cat", Value: cat}}
				if i%2 == 0 {
					params = append(params, Param{Name: "range", Value: strconv.Itoa(20 + i)})
				}
				got, err := seen.Answer(AnonymizedRequest{RID: rid, Cloak: geo.NewRect(x, y, x+64, y+32), Params: params})
				if err != nil {
					t.Error(err)
					return
				}
				answered[w][cat] += int64(len(got))
			}
		}(w)
	}
	wg.Wait()
	want := make(map[string]int64)
	for _, m := range answered {
		for cat, n := range m {
			want[cat] += n
		}
	}
	if got := provider.Billing(); !reflect.DeepEqual(got, want) {
		t.Fatalf("billing = %v, answered %v", got, want)
	}
	log := seen.Log()
	if len(log) != workers*each {
		t.Fatalf("log holds %d requests, want %d", len(log), workers*each)
	}
	rids := make(map[uint64]bool, len(log))
	for _, ar := range log {
		if rids[ar.RID] {
			t.Fatalf("request %d logged twice", ar.RID)
		}
		rids[ar.RID] = true
	}
}

// TestRecordingProviderOrder: the log is in arrival order and complete,
// failed lookups included.
func TestRecordingProviderOrder(t *testing.T) {
	_, _, provider := pipelineFixture(t)
	seen := NewRecordingProvider(provider)
	cloak := geo.NewRect(0, 0, 2, 8)
	for rid, rng := range []string{"1", "NaN", "2"} {
		_, _ = seen.Answer(AnonymizedRequest{RID: uint64(rid), Cloak: cloak, Params: []Param{{Name: "range", Value: rng}}})
	}
	log := seen.Log()
	if len(log) != 3 || log[0].RID != 0 || log[1].RID != 1 || log[2].RID != 2 {
		t.Fatalf("log = %+v, want rids 0,1,2 in order", log)
	}
}
