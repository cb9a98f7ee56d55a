package lbs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"policyanon/internal/geo"
)

// The four linear scans below are the candidate generators as they stood
// before the cell walk. They are the differential oracle: every generator
// must return exactly what its scan returns, in the same order.

func refCategory(s *POIStore, category string) []int {
	var idxs []int
	for i, p := range s.pois {
		if category == "" || p.Category == category {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func sortByID(out []POI) []POI {
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func refInRange(s *POIStore, center geo.Point, radius float64, category string) []POI {
	r2 := radius * radius
	var out []POI
	for _, p := range s.pois {
		if category != "" && p.Category != category {
			continue
		}
		if float64(center.DistSq(p.Loc)) <= r2 {
			out = append(out, p)
		}
	}
	return sortByID(out)
}

func refCandidateInRange(s *POIStore, cloak geo.Rect, radius float64, category string) []POI {
	r2 := radius * radius
	var out []POI
	for _, p := range s.pois {
		if category != "" && p.Category != category {
			continue
		}
		if float64(cloak.MinDistSqToPoint(p.Loc)) <= r2 {
			out = append(out, p)
		}
	}
	return sortByID(out)
}

func refCandidateNearest(s *POIStore, cloak geo.Rect, category string) []POI {
	idxs := refCategory(s, category)
	if len(idxs) == 0 {
		return nil
	}
	rStar := int64(math.MaxInt64)
	for _, i := range idxs {
		if d := cloak.MaxDistSqToPoint(s.pois[i].Loc); d < rStar {
			rStar = d
		}
	}
	var out []POI
	for _, i := range idxs {
		if cloak.MinDistSqToPoint(s.pois[i].Loc) <= rStar {
			out = append(out, s.pois[i])
		}
	}
	return sortByID(out)
}

func refCandidateKNearest(s *POIStore, cloak geo.Rect, n int, category string) []POI {
	if n <= 1 {
		return refCandidateNearest(s, cloak, category)
	}
	idxs := refCategory(s, category)
	if len(idxs) == 0 {
		return nil
	}
	sorted := make([]int64, len(idxs))
	for j, i := range idxs {
		sorted[j] = cloak.MaxDistSqToPoint(s.pois[i].Loc)
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	rN := sorted[min(n-1, len(sorted)-1)]
	var out []POI
	for _, i := range idxs {
		if cloak.MinDistSqToPoint(s.pois[i].Loc) <= rN {
			out = append(out, s.pois[i])
		}
	}
	return sortByID(out)
}

// checkAgainstReference holds all four generators to their linear scans
// for one (cloak, radius, category, n).
func checkAgainstReference(t *testing.T, s *POIStore, cloak geo.Rect, radius float64, category string, n int) {
	t.Helper()
	if got, want := s.CandidateInRange(cloak, radius, category), refCandidateInRange(s, cloak, radius, category); !reflect.DeepEqual(got, want) {
		t.Fatalf("CandidateInRange(%v, %v, %q):\n got %v\nwant %v", cloak, radius, category, got, want)
	}
	if got, want := s.CandidateNearest(cloak, category), refCandidateNearest(s, cloak, category); !reflect.DeepEqual(got, want) {
		t.Fatalf("CandidateNearest(%v, %q):\n got %v\nwant %v", cloak, category, got, want)
	}
	if got, want := s.CandidateKNearest(cloak, n, category), refCandidateKNearest(s, cloak, n, category); !reflect.DeepEqual(got, want) {
		t.Fatalf("CandidateKNearest(%v, %d, %q):\n got %v\nwant %v", cloak, n, category, got, want)
	}
	center := geo.Point{X: cloak.MinX, Y: cloak.MaxY}
	if got, want := s.InRange(center, radius, category), refInRange(s, center, radius, category); !reflect.DeepEqual(got, want) {
		t.Fatalf("InRange(%v, %v, %q):\n got %v\nwant %v", center, radius, category, got, want)
	}
}

// seededStore builds n POIs with unique ids over four categories, one of
// which ("rare") holds a single POI in the far corner.
func seededStore(t testing.TB, seed int64, n int, side, cellSide int32) *POIStore {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cats := []string{"gas", "rest", "hosp"}
	pois := make([]POI, 0, n+1)
	for i := 0; i < n; i++ {
		pois = append(pois, POI{
			ID:       "p" + itoa(i),
			Loc:      geo.Point{X: rng.Int31n(side), Y: rng.Int31n(side)},
			Category: cats[rng.Intn(len(cats))],
		})
	}
	pois = append(pois, POI{ID: "rare0", Loc: geo.Point{X: side - 1, Y: side - 1}, Category: "rare"})
	s, err := NewPOIStore(pois, geo.NewRect(0, 0, side, side), cellSide)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sweep runs the reference check over the cloak shapes, radii, categories
// and ranks the issue names, on one store.
func sweep(t *testing.T, s *POIStore, side int32) {
	t.Helper()
	cloaks := []geo.Rect{
		geo.NewRect(0, 0, side, side),                         // whole map
		geo.NewRect(side/3, side/3, side/3, side/3),           // degenerate point
		geo.NewRect(0, side/4, side/8, side/2),                // touching the west edge
		geo.NewRect(side-side/8, side/4, side, side/2),        // east
		geo.NewRect(side/4, 0, side/2, side/8),                // south
		geo.NewRect(side/4, side-side/8, side/2, side),        // north
		geo.NewRect(side/2, side/2, side/2+side/16, side/2+3), // interior
		geo.NewRect(-side, -side, -side/2, -side/2),           // wholly outside
		geo.NewRect(side/2, side/2, 3*side, 3*side),           // straddling
	}
	radii := []float64{0, 0.5, 1, 7.25, float64(side) / 10, float64(side) * 3}
	for _, cloak := range cloaks {
		for _, cat := range []string{"", "gas", "rare", "absent"} {
			for i, radius := range radii {
				checkAgainstReference(t, s, cloak, radius, cat, 1+i*3)
			}
		}
	}
}

func TestCandidatesMatchReference(t *testing.T) {
	const side = 512
	bounds := geo.NewRect(0, 0, side, side)
	mk := func(pois []POI, cellSide int32) *POIStore {
		t.Helper()
		s, err := NewPOIStore(pois, bounds, cellSide)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var oneCell, edges []POI
	for i := 0; i < 40; i++ {
		oneCell = append(oneCell, POI{ID: "c" + itoa(i), Loc: geo.Point{X: 200 + int32(i%4), Y: 200 + int32(i/4)%4}, Category: []string{"gas", "rest"}[i%2]})
		e := int32(i) * (side - 1) / 39
		edges = append(edges,
			POI{ID: "w" + itoa(i), Loc: geo.Point{X: 0, Y: e}, Category: "gas"},
			POI{ID: "e" + itoa(i), Loc: geo.Point{X: side - 1, Y: e}, Category: "rest"},
			POI{ID: "s" + itoa(i), Loc: geo.Point{X: e, Y: 0}, Category: "gas"},
			POI{ID: "n" + itoa(i), Loc: geo.Point{X: e, Y: side - 1}, Category: "hosp"})
	}
	neg, err := NewPOIStore([]POI{
		{ID: "a", Loc: geo.Point{X: -100, Y: -100}, Category: "gas"},
		{ID: "b", Loc: geo.Point{X: 99, Y: -3}, Category: "gas"},
		{ID: "c", Loc: geo.Point{X: 0, Y: 0}, Category: "rest"},
	}, geo.NewRect(-128, -128, 128, 128), 16)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]*POIStore{
		"empty":            mk(nil, 0),
		"one POI":          mk([]POI{{ID: "only", Loc: geo.Point{X: 17, Y: 400}, Category: "gas"}}, 0),
		"one cell":         mk(oneCell, 64),
		"bounds edges":     mk(edges, 0),
		"seeded":           seededStore(t, 1, 600, side, 0),
		"cellSide 1":       seededStore(t, 2, 200, side, 1),
		"cellSide > map":   seededStore(t, 3, 200, side, 4*side),
		"cellSide odd":     seededStore(t, 4, 300, side, 37),
		"dense":            seededStore(t, 5, 3000, side, 0),
		"uncategorised":    mk([]POI{{ID: "a", Loc: geo.Point{X: 1, Y: 1}}, {ID: "b", Loc: geo.Point{X: 300, Y: 9}}}, 0),
		"negative origin":  neg,
		"mutated Add/Drop": seededStore(t, 6, 150, side, 0),
	}
	mut := stores["mutated Add/Drop"]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		if err := mut.Add(POI{ID: "new" + itoa(i), Loc: geo.Point{X: rng.Int31n(side), Y: rng.Int31n(side)}, Category: "gas"}); err != nil {
			t.Fatal(err)
		}
		if !mut.Remove("p" + itoa(i*3)) {
			t.Fatalf("Remove(p%d) failed", i*3)
		}
	}
	if !mut.Remove("rare0") { // "rare" becomes an absent category
		t.Fatal("Remove(rare0) failed")
	}

	for name, s := range stores {
		t.Run(name, func(t *testing.T) { sweep(t, s, side) })
	}
}

// TestCandidatesMatchReferenceRandom is the seeded random half of the
// oracle: many stores, cloaks, radii and ranks.
func TestCandidatesMatchReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		side := int32(64) << rng.Intn(5)
		s := seededStore(t, seed, 1+rng.Intn(400), side, int32(rng.Intn(3))*int32(1+rng.Intn(50)))
		for trial := 0; trial < 40; trial++ {
			x, y := rng.Int31n(side), rng.Int31n(side)
			cloak := geo.NewRect(x, y, x+rng.Int31n(side/4+1), y+rng.Int31n(side/4+1))
			cat := []string{"", "gas", "rest", "hosp", "rare", "absent"}[rng.Intn(6)]
			checkAgainstReference(t, s, cloak, rng.Float64()*float64(side)/4, cat, 1+rng.Intn(8))
		}
	}
}

// TestCandidateRadiusExtremes: no finite or non-finite radius may trip the
// integer cell arithmetic, and each must answer what the scan answers.
func TestCandidateRadiusExtremes(t *testing.T) {
	const side = 256
	s := seededStore(t, 9, 300, side, 0)
	cloak := geo.NewRect(40, 60, 72, 92)
	negZero := math.Copysign(0, -1)
	for _, radius := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0, negZero,
		-12.5, side * 10, math.MaxInt64, float64(maxReach), float64(maxReach) - 1, math.SmallestNonzeroFloat64} {
		checkAgainstReference(t, s, cloak, radius, "gas", 2)
	}
	if got := s.CandidateInRange(cloak, math.NaN(), ""); got != nil {
		t.Fatalf("NaN radius returned %d candidates", len(got))
	}
	if got := s.CandidateInRange(cloak, math.Inf(1), ""); len(got) != s.Len() {
		t.Fatalf("+Inf radius returned %d of %d POIs", len(got), s.Len())
	}
}

// FuzzCandidates drives random (store seed, cloak, radius, category, n)
// against the linear reference.
func FuzzCandidates(f *testing.F) {
	f.Add(int64(1), int32(10), int32(10), int32(30), int32(30), 25.0, uint8(1), uint8(1), uint8(0))
	f.Add(int64(2), int32(0), int32(0), int32(255), int32(255), 0.0, uint8(0), uint8(3), uint8(1))
	f.Add(int64(3), int32(-500), int32(90), int32(5), int32(700), 1e300, uint8(4), uint8(200), uint8(40))
	f.Add(int64(4), int32(77), int32(77), int32(77), int32(77), math.NaN(), uint8(5), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, x0, y0, x1, y1 int32, radius float64, cat, n, cell uint8) {
		const side, limit = 256, 1 << 20
		clampTo := func(v int32) int32 { return max(-limit, min(limit, v)) } // keep squared distances inside int64
		x0, y0, x1, y1 = clampTo(x0), clampTo(y0), clampTo(x1), clampTo(y1)
		cloak := geo.NewRect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
		s := seededStore(t, seed, int(uint64(seed)%300), side, int32(cell))
		category := []string{"", "gas", "rest", "hosp", "rare", "absent"}[int(cat)%6]
		checkAgainstReference(t, s, cloak, radius, category, int(n))
	})
}
