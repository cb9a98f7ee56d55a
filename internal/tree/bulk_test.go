package tree

import (
	"fmt"
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
