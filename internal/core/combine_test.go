package core

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"policyanon/internal/geo"
	"policyanon/internal/tree"
	"policyanon/internal/workload"
)

// benchTree is the cloaking tree of a generated snapshot of the given size
// at k = 50 on the default map, the shape the install path combines.
func benchTree(tb testing.TB, users int) *tree.Tree {
	tb.Helper()
	pts := workload.Generate(workload.Config{Intersections: users / 2}, 42).Points()
	if len(pts) < users {
		tb.Fatalf("generated %d points, want %d", len(pts), users)
	}
	tr, err := tree.Build(pts[:users], workload.MapBounds(workload.DefaultMapSide), tree.Options{MinCountToSplit: 50})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// naiveMinPlus is minPlus's oracle: every pair, one at a time.
func naiveMinPlus(n int, a, b []int64) []int64 {
	out := make([]int64, n)
	for j := range out {
		out[j] = inf
		for u0 := 0; u0 <= j && u0 < len(a); u0++ {
			if u1 := j - u0; u1 < len(b) {
				out[j] = min(out[j], a[u0]+b[u1])
			}
		}
	}
	return out
}

// TestMinPlusMatchesNaive holds the blocked kernel to the pair-by-pair
// convolution on every short length pair and cut — including outputs that
// end inside a block, rows shorter than a block and rows of one entry —
// with costs from a narrow range and inf holes.
func TestMinPlusMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := getScratch(0)
	defer putScratch(cs)
	for la := 1; la <= 3*lanes+1; la++ {
		for lb := 1; lb <= 3*lanes+1; lb++ {
			a := randRow(rng, la-1, la, 8, 0.2).costs
			b := randRow(rng, lb-1, lb, 8, 0.2).costs
			for n := 1; n <= la+lb-1; n++ {
				want := naiveMinPlus(n, a, b)
				got := make([]int64, n)
				minPlus(got, a, cs.reversed(b))
				if !slices.Equal(got, want) {
					t.Fatalf("la=%d lb=%d n=%d:\n got %v\nwant %v", la, lb, n, got, want)
				}
			}
		}
	}
}

// TestFoldRunsMatchesNaive holds the run-merge fold to the pair-by-pair
// convolution on every short length pair and cut, on i.i.d. rows (runs of
// one or two entries) and rows in convex pieces, both with inf holes.
func TestFoldRunsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cs := getScratch(0)
	defer putScratch(cs)
	draw := func(n int) []int64 {
		if rng.Intn(2) == 0 {
			return randRow(rng, n-1, n, 8, 0.2).costs
		}
		return convexRow(rng, n-1, n, 1+rng.Intn(3), 8, 0.1).costs
	}
	for la := 1; la <= 20; la++ {
		for lb := 1; lb <= 20; lb++ {
			a, b := draw(la), draw(lb)
			for n := 1; n <= la+lb-1; n++ {
				want := naiveMinPlus(n, a, b)
				got := slices.Repeat([]int64{inf}, n)
				foldRunsOnly(cs, got, a, b)
				if !slices.Equal(got, want) {
					t.Fatalf("la=%d lb=%d n=%d:\n got %v\nwant %v", la, lb, n, got, want)
				}
			}
		}
	}
}

// BenchmarkMinPlus is the fold kernel alone on two dense rows of the
// length a node near the root of a 100k-user tree combines at k = 50
// ((k+1)·h with h around 12), cut where such a node's fold is cut.
func BenchmarkMinPlus(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r0 := randRow(rng, 611, 5000, 1<<30, 0)
	r1 := randRow(rng, 611, 5000, 1<<30, 0)
	cs := getScratch(0)
	defer putScratch(cs)
	out := make([]int64, 663+50)
	b.SetBytes(int64(len(out)) * 8)
	for b.Loop() {
		minPlus(out, r0.costs, cs.reversed(r1.costs))
	}
}

// BenchmarkMinPlusPieces is BenchmarkMinPlus's fold on rows of the same
// length and cut in three convex pieces each — the median piece count of
// the DP's rows — folded by run merges (splitting the rows included).
// Against BenchmarkMinPlus it prices one merge step in minPlus pairs
// (mergeStepPairs).
func BenchmarkMinPlusPieces(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r0 := convexRow(rng, 611, 5000, 3, 1<<30, 0)
	r1 := convexRow(rng, 611, 5000, 3, 1<<30, 0)
	cs := getScratch(0)
	defer putScratch(cs)
	out := slices.Repeat([]int64{inf}, 663+50)
	b.SetBytes(int64(len(out)) * 8)
	for b.Loop() {
		foldRunsOnly(cs, out, r0.costs, r1.costs)
	}
	b.ReportMetric(float64(cs.mergeSteps(r0.costs, r1.costs)), "steps/op")
}

// BenchmarkCombine is the bulk combine alone — NewMatrix over a built
// tree, the layer benchmark/ reports as core.combine_ms — on one worker
// and on the automatic worker count.
func BenchmarkCombine(b *testing.B) {
	for _, users := range []int{20000, 100000} {
		tr := benchTree(b, users)
		for _, w := range []int{1, 0} {
			b.Run("users="+strconv.Itoa(users)+"/workers="+strconv.Itoa(w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := NewMatrix(tr, 50, Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkUpdate is the incremental maintenance of a /v1/moves batch
// alone — Matrix.Update after a batch of tree moves, the layer benchmark/
// reports as core.update_ms — at the moves_publish workload's 20k users
// and at 100k, k = 50, with 64- and 512-move batches. As in that workload
// the users move round-robin in a seeded order, each by at most 190 m;
// the tree moves run off the clock.
func BenchmarkUpdate(b *testing.B) {
	for _, users := range []int{20000, 100000} {
		tr := benchTree(b, users)
		m, err := NewMatrix(tr, 50, Options{})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		order := rng.Perm(users)
		next := 0
		side := workload.DefaultMapSide
		for _, batch := range []int{64, 512} {
			b.Run("users="+strconv.Itoa(users)+"/moves="+strconv.Itoa(batch), func(b *testing.B) {
				rows := 0
				for b.Loop() {
					b.StopTimer()
					for range batch {
						i := int32(order[next%users])
						next++
						p := tr.Point(i)
						for {
							dx, dy := rng.Int31n(381)-190, rng.Int31n(381)-190
							to := geo.Point{X: p.X + dx, Y: p.Y + dy}
							if dx*dx+dy*dy <= 190*190 && to.X >= 0 && to.Y >= 0 && to.X < side && to.Y < side {
								p = to
								break
							}
						}
						if err := tr.Move(i, p); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					rows += m.Update()
				}
				b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			})
		}
	}
}

// TestCombineAllocsIndependentOfTreeSize pins the row arena: a full
// combine allocates the arenas, the row table and each scratch once, so
// its allocation count does not grow with the tree — sequentially, and on
// the worker pool, whose count grows with the workers alone.
func TestCombineAllocsIndependentOfTreeSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(41))
	small := buildTree(t, randPts(rng, 2000, 1<<14), 1<<14, tree.Binary, 5)
	large := buildTree(t, randPts(rng, 40000, 1<<14), 1<<14, tree.Binary, 5)
	for _, nw := range []int{1, 4} {
		var counts [2]float64
		for i, tr := range []*tree.Tree{small, large} {
			counts[i] = testing.AllocsPerRun(3, func() {
				if _, err := NewMatrix(tr, 5, Options{Workers: nw}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if counts[1] > counts[0]+8 || nw == 1 && counts[1] > 24 {
			t.Errorf("workers=%d: NewMatrix allocates %.0f at %d nodes and %.0f at %d nodes",
				nw, counts[0], small.NumNodes(), counts[1], large.NumNodes())
		}
	}
}

// TestRowViewsStayDisjoint drives a matrix through moves that split and
// collapse subtrees — freeing node ids and reviving them — with Update
// after each batch and a full Recompute (a fresh layout) after every
// other one. After every step no two live rows may share arena memory, and
// every row must equal a from-scratch matrix over the same tree. Without
// layout's clearing of dead rows, a revived id writes into a live row's
// slot and the disjointness check fails.
func TestRowViewsStayDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const side, k = 1 << 9, 2
	pts := randPts(rng, 600, side)
	tr := buildTree(t, pts, side, tree.Binary, k)
	m, err := NewMatrix(tr, k, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hot := geo.Point{X: 37, Y: 411}
	for round := 0; round < 80; round++ {
		for j := 0; j < 1+rng.Intn(30); j++ {
			to := geo.Point{X: rng.Int31n(side), Y: rng.Int31n(side)}
			if round%4 < 2 { // pile users onto one spot, then scatter them
				to = geo.Point{X: hot.X + rng.Int31n(4), Y: hot.Y + rng.Int31n(4)}
			}
			if err := tr.Move(int32(rng.Intn(len(pts))), to); err != nil {
				t.Fatal(err)
			}
		}
		m.Update()
		if round%2 == 1 {
			m.Recompute()
		}
		requireDisjointViews(t, m)
		fresh, err := NewMatrix(tr, k, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, fresh, m)
	}
}

// requireDisjointViews fails if the backing memory of any two live rows'
// costs or jpick overlaps, capacity included.
func requireDisjointViews(t *testing.T, m *Matrix) {
	t.Helper()
	type span struct {
		lo, hi uintptr
		id     tree.NodeID
	}
	var spans []span
	add := func(id tree.NodeID, p unsafe.Pointer, n, size int) {
		if n > 0 {
			spans = append(spans, span{uintptr(p), uintptr(p) + uintptr(n*size), id})
		}
	}
	m.t.PostOrder(func(id tree.NodeID) {
		r := &m.rows[id]
		add(id, unsafe.Pointer(unsafe.SliceData(r.costs)), cap(r.costs), 8)
		add(id, unsafe.Pointer(unsafe.SliceData(r.jpick)), cap(r.jpick), 4)
	})
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("rows of nodes %d and %d share memory", spans[i-1].id, spans[i].id)
		}
	}
}
