package lbs

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// The provider-side benchmarks run at the repo benchmark's shape: 20k
// uniform POIs in four categories on the 2^17 m map, and cloaks the size a
// k=50 policy over 200k users hands out there — quad-tree quadrants and
// semi-quadrants about 1/64 of the map wide.
const (
	benchSide = 1 << 17
	benchPOIs = 20000
)

var benchCats = [...]string{"gas", "food", "bank", "shop"}

func benchStore(b *testing.B) (*POIStore, []geo.Rect) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	pois := make([]POI, benchPOIs)
	for i := range pois {
		pois[i] = POI{
			ID:       "p" + strconv.Itoa(i),
			Loc:      geo.Point{X: rng.Int31n(benchSide), Y: rng.Int31n(benchSide)},
			Category: benchCats[rng.Intn(len(benchCats))],
		}
	}
	store, err := NewPOIStore(pois, geo.NewRect(0, 0, benchSide, benchSide), 0)
	if err != nil {
		b.Fatal(err)
	}
	const cell = benchSide / 64
	cloaks := make([]geo.Rect, 1024)
	for i := range cloaks {
		x, y := rng.Int31n(63)*cell, rng.Int31n(63)*cell
		w, h := int32(cell), int32(cell)
		switch i % 3 { // quadrant, west-east semi-quadrant pair, its transpose
		case 1:
			w = 2 * cell
		case 2:
			h = 2 * cell
		}
		cloaks[i] = geo.NewRect(x, y, x+w, y+h)
	}
	return store, cloaks
}

var benchSink []POI

func BenchmarkCandidateInRange(b *testing.B) {
	store, cloaks := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = store.CandidateInRange(cloaks[i%len(cloaks)], float64(100+i%400), benchCats[i%len(benchCats)])
	}
}

func BenchmarkCandidateNearest(b *testing.B) {
	store, cloaks := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = store.CandidateNearest(cloaks[i%len(cloaks)], benchCats[i%len(benchCats)])
	}
}

// BenchmarkProviderAnswerParallel is the provider as a batch drives it:
// GOMAXPROCS goroutines answering distinct range requests at once. ns/op
// falls with the core count only if no lock spans the scan.
func BenchmarkProviderAnswerParallel(b *testing.B) {
	store, cloaks := benchStore(b)
	provider := NewPOIProvider(store)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			_, err := provider.Answer(AnonymizedRequest{RID: uint64(i), Cloak: cloaks[i%len(cloaks)], Params: []Param{
				{Name: "cat", Value: benchCats[i%len(benchCats)]},
				{Name: "range", Value: strconv.Itoa(100 + i%400)},
			}})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

var benchGroups []Group

// BenchmarkGroupsOn groups 100k records holding about 2 000 cloaks, ~50 a
// cloak (the shape of a k = 50 policy), at GOMAXPROCS goroutines: on the
// flat storage of a from-scratch policy and on the paged storage a delta
// chain derives from it.
//
//	go test ./internal/lbs -run '^$' -bench GroupsOn -benchtime 20x
func BenchmarkGroupsOn(b *testing.B) {
	const users, side = 100_000, 23
	rng := rand.New(rand.NewSource(42))
	recs := make([]location.Record, users)
	cloaks := make([]geo.Rect, users)
	for i := range recs {
		p := geo.Point{X: rng.Int31n(1 << 10), Y: rng.Int31n(1 << 10)}
		recs[i] = location.Record{UserID: "u" + strconv.Itoa(i), Loc: p}
		cloaks[i] = cellCloak(p, side)
	}
	db, err := location.FromRecords(recs)
	if err != nil {
		b.Fatal(err)
	}
	flat, err := NewAssignment(db, cloaks)
	if err != nil {
		b.Fatal(err)
	}
	paged := flat
	for range 8 {
		paged = randomDelta(b, rng, paged)
	}
	for _, c := range []struct {
		name string
		a    *Assignment
	}{{"flat", flat}, {"paged", paged}} {
		b.Run(fmt.Sprintf("users=%d/%s", users, c.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchGroups = c.a.Groups()
			}
		})
	}
}
