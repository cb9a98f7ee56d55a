package tree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/workload"
)

// refBuild is the differential oracle of Build: the recursive bulk load
// the range build replaced, which hands every child a freshly grown index
// slice and places a point by testing the child rectangles in order.
func refBuild(t *testing.T, pts []geo.Point, bounds geo.Rect, opt Options) *Tree {
	t.Helper()
	// An empty Build validates and defaults the options.
	tr, err := Build(nil, bounds, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr.nodes = tr.nodes[:0]
	tr.loc = slices.Clone(pts)
	tr.leafOf = make([]NodeID, len(pts))
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	refBulk(tr, tr.alloc(bounds, None, 0), idx)
	return tr
}

func refBulk(t *Tree, id NodeID, idx []int32) {
	t.nodes[id].count = int32(len(idx))
	if !t.shouldSplit(id) {
		t.nodes[id].pts = append([]int32(nil), idx...)
		for _, p := range idx {
			t.leafOf[p] = id
		}
		return
	}
	rects, n := t.childRects(t.nodes[id].rect)
	groups := make([][]int32, n)
	for _, p := range idx {
		placed := false
		for ci, cr := range rects[:n] {
			if cr.Contains(t.loc[p]) {
				groups[ci] = append(groups[ci], p)
				placed = true
				break
			}
		}
		if !placed {
			panic(fmt.Sprintf("tree: point %v not in any child of %v", t.loc[p], t.nodes[id].rect))
		}
	}
	t.nodes[id].nchild = int8(n)
	for ci, cr := range rects[:n] {
		cid := t.alloc(cr, id, t.nodes[id].height+1)
		t.nodes[id].children[ci] = cid
		refBulk(t, cid, groups[ci])
	}
}

// requireIdentical fails unless got is want node for node: the same
// NodeID numbering, rects, links, heights, counts, leaf point order and
// point-to-leaf index.
func requireIdentical(t *testing.T, want, got *Tree) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("%d nodes, want %d", len(got.nodes), len(want.nodes))
	}
	for id := range want.nodes {
		w, g := want.nodes[id], got.nodes[id]
		if !slices.Equal(g.pts, w.pts) {
			t.Fatalf("node %d: leaf points %v, want %v", id, g.pts, w.pts)
		}
		w.pts, g.pts = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("node %d: %+v, want %+v", id, g, w)
		}
	}
	if !slices.Equal(got.leafOf, want.leafOf) {
		t.Fatal("leafOf differs")
	}
}

// sameLeaves is sameShape plus the canonical leaf point order — what a
// moved tree shares with a fresh build, whose NodeIDs it does not.
func sameLeaves(a, b *Tree, ai, bi NodeID) bool {
	if !sameShape(a, b, ai, bi) {
		return false
	}
	if a.IsLeaf(ai) {
		return slices.Equal(a.LeafPoints(ai), b.LeafPoints(bi))
	}
	ac, bc := a.Children(ai), b.Children(bi)
	for j := range ac {
		if !sameLeaves(a, b, ac[j], bc[j]) {
			return false
		}
	}
	return true
}

type buildCase struct {
	side int32
	pts  []geo.Point
}

// buildCases are the generated point sets of the differential tests.
func buildCases(rng *rand.Rand) map[string]buildCase {
	const side = 64
	uniform := randPoints(rng, 600, side)
	// Many users per location, as the road-network workload has.
	dup := make([]geo.Point, 400)
	for i := range dup {
		dup[i] = uniform[rng.Intn(12)]
	}
	// Every point on a split line of the first levels: the midpoints,
	// which belong to the upper (east/north) child under half-open rects.
	lines := make([]geo.Point, 300)
	for i := range lines {
		lines[i] = geo.Point{X: 16 * rng.Int31n(4), Y: rng.Int31n(side)}
		if i%2 == 0 {
			lines[i] = geo.Point{X: rng.Int31n(side), Y: 16 * rng.Int31n(4)}
		}
	}
	return map[string]buildCase{
		"uniform":    {side, uniform},
		"duplicates": {side, dup},
		"splitlines": {side, lines},
		"odd-side":   {37, randPoints(rng, 300, 37)},
		"one-cell":   {1, make([]geo.Point, 120)},
		"empty":      {side, nil},
	}
}

// TestBuildMatchesRecursiveOracle holds the range build to the recursive
// one on both kinds and around the split threshold.
func TestBuildMatchesRecursiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, c := range buildCases(rng) {
		for _, kind := range []Kind{Binary, Quad} {
			for _, k := range []int{1, 2, 50} {
				t.Run(fmt.Sprintf("%s/%v/k=%d", name, kind, k), func(t *testing.T) {
					opt := Options{Kind: kind, MinCountToSplit: k}
					got := mustBuild(t, c.pts, c.side, opt)
					requireIdentical(t, refBuild(t, c.pts, got.Bounds(), opt), got)
				})
			}
		}
	}
}

// FuzzBuild holds Build to the recursive oracle on decoded point sets:
// three bytes a point (a form byte, then one byte per axis), over a
// square map of any side and origin, on either kind and with a small
// MinCountToSplit, so fuzzed inputs reach deep trees and dense leaves.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, int32(0), uint32(63), false, uint8(0))
	f.Add([]byte{0, 7, 9}, int32(0), uint32(63), true, uint8(0))                                // a single point
	f.Add([]byte{0, 3, 3, 16, 0, 0, 16, 0, 0, 16, 0, 0}, int32(-5), uint32(9), false, uint8(1)) // co-located
	f.Add([]byte{0x0a, 0x21, 0x42, 0x0f, 0xe3, 0x1b, 0x05, 0, 1, 0x0a, 0xff, 0x7a}, int32(0), uint32(99), true, uint8(0))
	f.Add([]byte{0x05, 0, 1, 0x0a, 1, 1, 0x0f, 0xff, 0xfe}, int32(math.MinInt32), uint32(1<<32-2), false, uint8(2)) // the map's edges, a huge map
	f.Fuzz(func(t *testing.T, data []byte, origin int32, sideSel uint32, quad bool, minSplit uint8) {
		side := 1 + int64(sideSel%(1<<32-1))
		lo := min(int64(origin), math.MaxInt32-side)
		bounds := geo.NewRect(int32(lo), int32(lo), int32(lo+side), int32(lo+side))
		pts := fuzzPoints(data, lo, lo+side)
		opt := Options{Kind: Binary, MinCountToSplit: 1 + int(minSplit%64)}
		if quad {
			opt.Kind = Quad
		}
		got, err := Build(pts, bounds, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, refBuild(t, pts, bounds, opt), got)
	})
}

// fuzzPoints decodes up to 4096 points in [lo, hi)². Bits 0–1 and 2–3
// of a point's form byte pick how its x and y bytes decode (fuzzCoord);
// bit 4 repeats the previous point instead, so co-located points are
// common.
func fuzzPoints(data []byte, lo, hi int64) []geo.Point {
	var pts []geo.Point
	for i := 0; i+3 <= len(data) && len(pts) < 4096; i += 3 {
		form := data[i]
		if form&16 != 0 && len(pts) > 0 {
			pts = append(pts, pts[len(pts)-1])
			continue
		}
		pts = append(pts, geo.Point{
			X: fuzzCoord(form&3, data[i+1], lo, hi),
			Y: fuzzCoord(form>>2&3, data[i+2], lo, hi),
		})
	}
	return pts
}

// fuzzCoord decodes one coordinate in [lo, hi): anywhere (form 0), on an
// edge (1), on a split line (2) or just below one (3). A split line is
// the midpoint reached by up to 1+v&7 halvings of [lo, hi) — the lines
// Build splits on along either axis, whichever the kind — taking the
// upper half where the bit of v>>3 for that level is set; a range
// narrower than 2 is not split.
func fuzzCoord(form, v byte, lo, hi int64) int32 {
	switch form {
	case 0:
		return int32(lo + int64(v)*(hi-lo)/256)
	case 1:
		if v&1 == 0 {
			return int32(lo)
		}
		return int32(hi - 1)
	}
	a, b, mid := lo, hi, lo
	for level := 0; level <= int(v&7) && b-a >= 2; level++ {
		mid = (a + b) / 2 // geo.Rect.Center
		if v>>3>>level&1 != 0 {
			a = mid
		} else {
			b = mid
		}
	}
	if form == 3 && mid > lo {
		mid--
	}
	return int32(mid)
}

// TestMoveOverRangesMatchesFreshBuild pins the invariant the range build
// leans on: a leaf is a capacity-limited range of the build's one index
// array, so a leaf that a Move grows past its range reallocates and never
// writes into its neighbour. After every move the tree must validate and
// equal a fresh build, leaf order included.
func TestMoveOverRangesMatchesFreshBuild(t *testing.T) {
	for _, kind := range []Kind{Binary, Quad} {
		for _, k := range []int{2, 50} {
			rng := rand.New(rand.NewSource(int64(43 + k)))
			const side = 64
			pts := randPoints(rng, 500, side)
			opt := Options{Kind: kind, MinCountToSplit: k}
			tr := mustBuild(t, pts, side, opt)
			for step := 0; step < 300; step++ {
				i := int32(rng.Intn(len(pts)))
				// Half the moves pile into one corner, so its leaves
				// outgrow the ranges they were built with.
				to := geo.Point{X: rng.Int31n(side), Y: rng.Int31n(side)}
				if step%2 == 0 {
					to = geo.Point{X: rng.Int31n(4), Y: rng.Int31n(4)}
				}
				if err := tr.Move(i, to); err != nil {
					t.Fatal(err)
				}
				pts[i] = to
				if err := tr.Validate(); err != nil {
					t.Fatalf("%v k=%d after %d moves: %v", kind, k, step+1, err)
				}
				fresh := mustBuild(t, pts, side, opt)
				if !sameLeaves(tr, fresh, tr.Root(), fresh.Root()) {
					t.Fatalf("%v k=%d: tree diverged from a fresh build after %d moves", kind, k, step+1)
				}
			}
		}
	}
}

// BenchmarkBuild is tree.Build at the install_repeat workload's size and
// point distribution (docs/PERFORMANCE.md §3e quotes it as tree.build).
func BenchmarkBuild(b *testing.B) {
	const users = 100000
	b.Run("users="+strconv.Itoa(users), func(b *testing.B) {
		db, err := workload.Generate(workload.Config{Intersections: users / 2}, 42).
			Sample(rand.New(rand.NewSource(42)), users)
		if err != nil {
			b.Fatal(err)
		}
		pts := db.Points()
		bounds := workload.MapBounds(workload.DefaultMapSide)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Build(pts, bounds, Options{MinCountToSplit: 50}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
