package lbs

import (
	"math/rand"
	"testing"

	"policyanon/internal/geo"
)

// Soundness + completeness of anonymized range queries: for any location
// in the cloak, FilterInRange(CandidateInRange(...)) equals the exact
// range answer.
func TestCandidateInRangeSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randStore(t, rng, 300, 512)
	for trial := 0; trial < 40; trial++ {
		x, y := rng.Int31n(450), rng.Int31n(450)
		w, h := 1+rng.Int31n(48), 1+rng.Int31n(48)
		cloak := geo.NewRect(x, y, x+w, y+h)
		radius := 10 + rng.Float64()*80
		cands := s.CandidateInRange(cloak, radius, "gas")
		for probe := 0; probe < 10; probe++ {
			loc := geo.Point{X: cloak.MinX + rng.Int31n(w+1), Y: cloak.MinY + rng.Int31n(h+1)}
			got := FilterInRange(cands, loc, radius)
			want := s.InRange(loc, radius, "gas")
			if len(got) != len(want) {
				t.Fatalf("cloak %v r=%.1f loc %v: filtered %d POIs, exact %d",
					cloak, radius, loc, len(got), len(want))
			}
			wantIDs := make(map[string]bool, len(want))
			for _, p := range want {
				wantIDs[p.ID] = true
			}
			for _, p := range got {
				if !wantIDs[p.ID] {
					t.Fatalf("spurious POI %v in filtered range answer", p)
				}
			}
		}
	}
}

func TestProviderRangeQueries(t *testing.T) {
	csp, _, provider := pipelineFixture(t)
	// Sam asks for italian restaurants within 10 meters.
	sr := ServiceRequest{UserID: "Sam", Loc: geo.Point{X: 3, Y: 1},
		Params: []Param{{Name: "cat", Value: "ital"}, {Name: "range", Value: "10"}}}
	ar, answer, err := csp.Serve(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer) == 0 {
		t.Fatal("range query returned nothing")
	}
	exact := FilterInRange(answer, sr.Loc, 10)
	if len(exact) == 0 {
		t.Fatal("client filtering lost all range results")
	}
	_ = ar
	// Malformed range parameter is rejected by the provider.
	if _, err := provider.Answer(AnonymizedRequest{
		RID: 1, Cloak: geo.NewRect(0, 0, 4, 4),
		Params: []Param{{Name: "range", Value: "not-a-number"}},
	}); err == nil {
		t.Fatal("bad range parameter accepted")
	}
	if _, err := provider.Answer(AnonymizedRequest{
		RID: 2, Cloak: geo.NewRect(0, 0, 4, 4),
		Params: []Param{{Name: "range", Value: "-5"}},
	}); err == nil {
		t.Fatal("negative range accepted")
	}
}

// Candidate range answers grow with the cloak — the utility argument.
func TestCandidateInRangeGrowsWithCloak(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randStore(t, rng, 400, 512)
	small := geo.NewRect(200, 200, 210, 210)
	big := geo.NewRect(150, 150, 300, 300)
	if len(s.CandidateInRange(small, 50, "")) > len(s.CandidateInRange(big, 50, "")) {
		t.Fatal("smaller cloak produced more range candidates")
	}
}

// Soundness of CandidateKNearest: for any probe in the cloak, the probe's
// exact top-N POIs are all present in the candidate set.
func TestCandidateKNearestIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randStore(t, rng, 250, 512)
	for trial := 0; trial < 30; trial++ {
		x, y := rng.Int31n(450), rng.Int31n(450)
		w, h := 1+rng.Int31n(40), 1+rng.Int31n(40)
		cloak := geo.NewRect(x, y, x+w, y+h)
		const n = 3
		cands := s.CandidateKNearest(cloak, n, "gas")
		for probe := 0; probe < 10; probe++ {
			loc := geo.Point{X: cloak.MinX + rng.Int31n(w+1), Y: cloak.MinY + rng.Int31n(h+1)}
			got := FilterKNearest(cands, loc, n)
			// Exact top-n by brute force over the whole store.
			var all []POI
			for _, p := range s.pois {
				if p.Category == "gas" {
					all = append(all, p)
				}
			}
			want := FilterKNearest(all, loc, n)
			if len(got) != len(want) {
				t.Fatalf("cloak %v: filtered %d, want %d", cloak, len(got), len(want))
			}
			for i := range want {
				if loc.DistSq(got[i].Loc) != loc.DistSq(want[i].Loc) {
					t.Fatalf("cloak %v probe %v rank %d: got %v (d=%d), want %v (d=%d)",
						cloak, loc, i, got[i].ID, loc.DistSq(got[i].Loc), want[i].ID, loc.DistSq(want[i].Loc))
				}
			}
		}
	}
}

func TestCandidateKNearestEdges(t *testing.T) {
	s, err := NewPOIStore(nil, geo.NewRect(0, 0, 16, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CandidateKNearest(geo.NewRect(0, 0, 4, 4), 3, ""); got != nil {
		t.Fatal("empty store returned kNN candidates")
	}
	s2, err := NewPOIStore([]POI{{ID: "only", Loc: geo.Point{X: 1, Y: 1}}}, geo.NewRect(0, 0, 16, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	got := s2.CandidateKNearest(geo.NewRect(0, 0, 4, 4), 5, "")
	if len(got) != 1 {
		t.Fatalf("n beyond store size: %v", got)
	}
	if got := FilterKNearest(nil, geo.Point{}, 3); len(got) != 0 {
		t.Fatal("empty filter returned POIs")
	}
}
