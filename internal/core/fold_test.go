package core

import (
	"math/rand"
	"slices"
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/tree"
	"policyanon/internal/workload"
)

// foldPair is the full two-child combine: the dense min-plus convolution
// over [0..b0+b1], the two shifted copies of the dense parts, and the
// all-pass-up point at d0+d1, every achievable j kept. It is the oracle of
// foldPairTrunc, which computes only what rowFromProfile reads of it.
func foldPair(cs *combineScratch, r0, r1 *row) profile {
	maxJ := int(r0.d) + int(r1.d)
	cs.ensureFold(maxJ + 1)
	fold := cs.fold
	c0s, c1s := r0.costs, r1.costs
	for u0, c0 := range c0s {
		if c0 >= inf {
			continue
		}
		out := fold[u0 : u0+len(c1s)]
		for u1, c1 := range c1s {
			if s := c0 + c1; s < out[u1] {
				out[u1] = s
			}
		}
	}
	for u0, c0 := range c0s {
		if j := int(r1.d) + u0; c0 < fold[j] {
			fold[j] = c0
		}
	}
	for u1, c1 := range c1s {
		if j := int(r0.d) + u1; c1 < fold[j] {
			fold[j] = c1
		}
	}
	if fold[maxJ] > 0 {
		fold[maxJ] = 0
	}
	var p profile
	for j := 0; j <= maxJ; j++ {
		if c := fold[j]; c < inf {
			p.js = append(p.js, int32(j))
			p.costs = append(p.costs, c)
			fold[j] = inf
		}
	}
	return p
}

// oracleRow derives the row a node with child rows r0, r1 gets from the
// full fold.
func oracleRow(cs *combineScratch, d, bound int32, r0, r1 *row, area int64, k int) row {
	r := row{d: d, bound: bound, costs: make([]int64, bound+1)}
	p := foldPair(cs, r0, r1)
	rowFromProfile(cs, &r, p.js, p.costs, area, k)
	return r
}

// requireSameRow fails unless got has want's costs and jpick, entry for
// entry.
func requireSameRow(t *testing.T, what string, want, got *row) {
	t.Helper()
	if !slices.Equal(want.costs, got.costs) {
		t.Fatalf("%s: costs\n got %v\nwant %v", what, got.costs, want.costs)
	}
	if !slices.Equal(want.jpick, got.jpick) {
		t.Fatalf("%s: jpick\n got %v\nwant %v", what, got.jpick, want.jpick)
	}
}

// TestFoldPairTruncMatchesFull holds every two-child row the DP computes —
// binary trees over uniform and clustered snapshots, pruned and not, and
// the adaptive DP's semi-quadrant and square rows — to the row the full
// fold derives, costs and jpick bit for bit.
func TestFoldPairTruncMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	snapshots := map[string][]geo.Point{
		"uniform":   randPts(rng, 1500, 1<<12),
		"clustered": workload.Generate(workload.Config{Intersections: 150, MapSide: 1 << 12}, 5).Points(),
	}
	cs := getScratch(0)
	defer putScratch(cs)
	checked := 0
	for name, pts := range snapshots {
		for _, k := range []int{1, 2, 5, 17, 50} {
			for _, noPrune := range []bool{false, true} {
				tr := buildTree(t, pts, 1<<12, tree.Binary, k)
				m, err := NewMatrix(tr, k, Options{Workers: 1, NoPrune: noPrune})
				if err != nil {
					t.Fatal(err)
				}
				tr.PostOrder(func(id tree.NodeID) {
					children := tr.Children(id)
					r := &m.rows[id]
					if len(children) != 2 || r.bound < 0 {
						return
					}
					cs.ensureFold(tr.Len() + 1)
					want := oracleRow(cs, r.d, r.bound, &m.rows[children[0]], &m.rows[children[1]], tr.Area(id), k)
					requireSameRow(t, name, &want, r)
					checked++
				})
			}
		}
	}
	// The adaptive DP combines semi-quadrants and squares through the same
	// truncated fold.
	for _, k := range []int{2, 5, 17} {
		a := adaptiveFor(t, snapshots["uniform"], 1<<12, k, Options{})
		cs.ensureFold(a.t.Len() + 1)
		a.t.PostOrder(func(id tree.NodeID) {
			if a.t.IsLeaf(id) || a.rows[id].bound < 0 {
				return
			}
			for _, o := range orientations(a.t.Rect(id)) {
				square, semis := a.squareRowFor(id, o)
				for s := 0; s < 2; s++ {
					if semis[s].bound < 0 {
						continue
					}
					kids := a.t.Children(id)
					want := oracleRow(cs, semis[s].d, semis[s].bound,
						&a.rows[kids[o.kids[s][0]]], &a.rows[kids[o.kids[s][1]]], o.rects[s].Area(), k)
					requireSameRow(t, "adaptive semi", &want, &semis[s])
					checked++
				}
				want := oracleRow(cs, square.d, square.bound, &semis[0], &semis[1], a.t.Area(id), k)
				requireSameRow(t, "adaptive square", &want, &square)
				checked++
			}
		})
	}
	if checked < 1000 {
		t.Fatalf("only %d rows checked", checked)
	}
}

// randRow is a child row of the dense+spike shape: d, and bound+1 random
// costs below maxCost with inf holes (bound -1 gives an empty dense part).
func randRow(rng *rand.Rand, bound, d int, maxCost int64, holes float64) row {
	r := row{d: int32(d), bound: int32(bound)}
	for u := 0; u <= bound; u++ {
		c := rng.Int63n(maxCost)
		if rng.Float64() < holes {
			c = inf
		}
		r.costs = append(r.costs, c)
	}
	return r
}

// convexRow is a child row of the shape the DP's rows have: d, and bound+1
// costs in convex pieces of random lengths (about pieces of them) —
// slopes rising within a piece, falling or jumping between pieces — with
// inf holes. Slopes come from a range as narrow as 2 half of the time,
// so that equal slopes, the ties of a merge, are common.
func convexRow(rng *rand.Rand, bound, d, pieces int, maxCost int64, holes float64) row {
	r := row{d: int32(d), bound: int32(bound)}
	span := []int64{2, 2, 8, 1 << 10}[rng.Intn(4)]
	for len(r.costs) <= bound {
		n := 1 + rng.Intn(2*(bound+1)/pieces+1)
		c, slope := rng.Int63n(maxCost), rng.Int63n(2*span+1)-span
		for ; n > 0 && len(r.costs) <= bound; n-- {
			r.costs = append(r.costs, c)
			c += slope
			slope += rng.Int63n(span/2 + 1)
		}
	}
	if len(r.costs) == 0 {
		return r
	}
	shift := rng.Int63n(maxCost) - slices.Min(r.costs)
	for u := range r.costs {
		r.costs[u] += shift
		if rng.Float64() < holes {
			r.costs[u] = inf
		}
	}
	return r
}

// foldRunsOnly is the dense fold by run merges whatever they cost.
func foldRunsOnly(cs *combineScratch, out, c0, c1 []int64) {
	cs.splitRuns(c0, c1)
	foldRuns(cs, out, c0, c1)
}

// denseFolds are the two halves of the combine's dense fold, forced.
var denseFolds = map[string]denseFold{"foldMinPlus": foldMinPlus, "foldRuns": foldRunsOnly}

// combineWith is combinePair with the given dense fold.
func combineWith(cs *combineScratch, r, r0, r1 *row, area int64, k int, dense denseFold) {
	p := foldPairTrunc(cs, r0, r1, int(r.bound)+k, area, dense)
	rowFromProfile(cs, r, p.js, p.costs, area, k)
}

// checkFoldPair compares the truncated and the full fold on one randomly
// drawn pair of child rows and one parent bound, with the combine's dense
// fold and with each of its halves forced. A child row is drawn i.i.d.
// (randRow: runs of one or two entries) or in convex pieces (convexRow:
// the merge's shape) at random. Costs are drawn from a range as narrow as
// 4 values half of the time: the witnesses differ only on ties, and wide
// ranges hardly ever tie.
func checkFoldPair(t *testing.T, seed int64, k int, area int64, holes float64) {
	rng := rand.New(rand.NewSource(seed))
	maxCost := []int64{4, 16, 1 << 8, 1 << 20}[rng.Intn(4)]
	child := func() row {
		if rng.Intn(6) == 0 { // fewer than k users: the spike alone
			return randRow(rng, -1, rng.Intn(k), maxCost, holes)
		}
		b := rng.Intn(40)
		d := b + k + rng.Intn(30)
		if rng.Intn(2) == 0 {
			return convexRow(rng, b, d, 1+rng.Intn(6), maxCost, holes/4)
		}
		return randRow(rng, b, d, maxCost, holes)
	}
	r0, r1 := child(), child()
	d := r0.d + r1.d
	if int(d) < k {
		return
	}
	// Any bound the parent can have, up to d-k (so bound+k = d0+d1, the
	// untruncated case, is drawn too).
	bound := int32(rng.Intn(int(d) - k + 1))
	cs := getScratch(int(d) + 1)
	defer putScratch(cs)
	want := oracleRow(cs, d, bound, &r0, &r1, area, k)
	got := row{d: d, bound: bound, costs: make([]int64, bound+1)}
	combinePair(cs, &got, &r0, &r1, area, k)
	requireSameRow(t, "random rows", &want, &got)
	for name, dense := range denseFolds {
		combineWith(cs, &got, &r0, &r1, area, k, dense)
		requireSameRow(t, name, &want, &got)
	}
	for j, c := range cs.fold {
		if c != inf {
			t.Fatalf("fold[%d] = %d left behind", j, c)
		}
	}
}

// TestFoldKernelsAgreeOnInstallRows re-folds every two-child row of a
// 20k-user install's matrix by minPlus alone and by run merges alone: both
// must give the installed row, costs and jpick bit for bit. It also
// requires that the combine's cost rule merges most of these rows, the
// shape the merge is there for.
func TestFoldKernelsAgreeOnInstallRows(t *testing.T) {
	const k = 50
	tr := benchTree(t, 20000)
	m, err := NewMatrix(tr, k, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := getScratch(tr.Len() + 1)
	defer putScratch(cs)
	pairs, merged := 0, 0
	tr.PostOrder(func(id tree.NodeID) {
		kids := tr.Children(id)
		r := &m.rows[id]
		if len(kids) != 2 || r.bound < 0 {
			return
		}
		r0, r1 := &m.rows[kids[0]], &m.rows[kids[1]]
		for name, dense := range denseFolds {
			got := row{d: r.d, bound: r.bound, costs: make([]int64, r.bound+1)}
			combineWith(cs, &got, r0, r1, tr.Area(id), k, dense)
			requireSameRow(t, name, r, &got)
		}
		if len(r0.costs) > 0 && len(r1.costs) > 0 {
			pairs++
			cs.splitRuns(r0.costs, r1.costs)
			top := min(int(r.bound)+k, int(r.d), len(r0.costs)+len(r1.costs)-2)
			if mergeStepPairs*cs.mergeSteps(r0.costs, r1.costs) <= trianglePairs(len(r0.costs), len(r1.costs), top) {
				merged++
			}
		}
	})
	if pairs < 100 || 2*merged < pairs {
		t.Fatalf("%d of %d dense folds merge runs", merged, pairs)
	}
}

func TestFoldPairTruncRandomRows(t *testing.T) {
	for seed := int64(0); seed < 5000; seed++ {
		k := 1 + int(seed%13)
		area := []int64{1, 2, 3, 1000}[seed/4%4]
		checkFoldPair(t, seed, k, area, float64(seed%4)/8)
	}
}

// FuzzFoldPair holds the truncated fold followed by rowFromProfile to the
// full fold followed by rowFromProfile on random dense+spike rows with inf
// holes, random k, area and parent bound (bound+k ≥ d0+d1 included).
func FuzzFoldPair(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(1), uint8(0))
	f.Add(int64(7), uint8(50), uint16(4096), uint8(64))
	f.Add(int64(42), uint8(1), uint16(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, area uint16, holes uint8) {
		checkFoldPair(t, seed, 1+int(k%100), 1+int64(area), float64(holes)/256)
	})
}
