package core

import (
	"math/rand"
	"testing"

	"policyanon/internal/geo"
	"policyanon/internal/tree"
)

// rowsEqual compares two matrices row by row over the live nodes of their
// (shared-shape) trees. The parallel pass must be bit-identical to the
// sequential one, so any difference — d, bound, or a single cost — fails.
func rowsEqual(t *testing.T, want, got *Matrix) {
	t.Helper()
	want.t.PostOrder(func(id tree.NodeID) {
		a, b := &want.rows[id], &got.rows[id]
		if a.d != b.d || a.bound != b.bound {
			t.Fatalf("node %d: header mismatch: seq (d=%d bound=%d), par (d=%d bound=%d)",
				id, a.d, a.bound, b.d, b.bound)
		}
		for u := int32(0); u <= a.bound; u++ {
			if a.costs[u] != b.costs[u] {
				t.Fatalf("node %d: M[%d][%d] = %d sequential, %d parallel", id, id, u, a.costs[u], b.costs[u])
			}
		}
	})
}

// TestParallelParity is the golden parity oracle of the worker pool: for
// every tree kind, several k values, and several worker counts, the
// parallel bottom-up pass must produce exactly the sequential matrix.
// Run with -race to exercise the pool's synchronization.
func TestParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		for _, n := range []int{0, 1, 37, 400} {
			pts := randPts(rng, n, 1<<10)
			for _, k := range []int{1, 2, 5, 17} {
				tr := buildTree(t, pts, 1<<10, kind, k)
				seq, err := NewMatrix(tr, k, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, nw := range []int{2, 3, 8} {
					par, err := NewMatrix(tr, k, Options{Workers: nw})
					if err != nil {
						t.Fatal(err)
					}
					rowsEqual(t, seq, par)
					wantCost, wantErr := seq.OptimalCost()
					gotCost, gotErr := par.OptimalCost()
					if wantCost != gotCost || (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("kind=%v n=%d k=%d nw=%d: cost %d (%v) sequential, %d (%v) parallel",
							kind, n, k, nw, wantCost, wantErr, gotCost, gotErr)
					}
				}
			}
		}
	}
}

// TestParallelParityNaive checks the pool under the ablation combine too:
// the schedule must not depend on which combine body runs.
func TestParallelParityNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPts(rng, 60, 1<<8)
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		tr := buildTree(t, pts, 1<<8, kind, 3)
		seq, err := NewMatrix(tr, 3, Options{NaiveCombine: true, NoPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewMatrix(tr, 3, Options{NaiveCombine: true, NoPrune: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, seq, par)
	}
}

// TestParallelDegenerate exercises the pool on the adversarial tree shapes
// the scheduler sees no parallelism in: a maximum-depth single chain (all
// points coincident), a heavily empty tree (all points in one corner), a
// tree whose root population is below k, and the empty tree.
func TestParallelDegenerate(t *testing.T) {
	t.Run("single-chain", func(t *testing.T) {
		// Coincident points split down one path until MaxDepth: every
		// interior node has one populated and one (or three) empty child.
		pts := make([]geo.Point, 40)
		for i := range pts {
			pts[i] = geo.Point{X: 3, Y: 5}
		}
		for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
			tr := buildTree(t, pts, 1<<12, kind, 2)
			seq, err := NewMatrix(tr, 2, Options{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewMatrix(tr, 2, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, seq, par)
		}
	})
	t.Run("empty-quadrants", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		pts := randPts(rng, 120, 1<<4) // corner of a 2^12 map
		for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
			tr := buildTree(t, pts, 1<<12, kind, 4)
			seq, err := NewMatrix(tr, 4, Options{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewMatrix(tr, 4, Options{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, seq, par)
		}
	})
	t.Run("k-exceeds-population", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		pts := randPts(rng, 5, 1<<8)
		tr := buildTree(t, pts, 1<<8, tree.Binary, 10)
		par, err := NewMatrix(tr, 10, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := par.OptimalCost(); err == nil {
			t.Fatal("expected ErrInsufficientUsers with |D| < k")
		}
	})
	t.Run("empty-tree", func(t *testing.T) {
		tr := buildTree(t, nil, 1<<8, tree.Binary, 2)
		par, err := NewMatrix(tr, 2, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if c, err := par.OptimalCost(); err != nil || c != 0 {
			t.Fatalf("empty tree: cost %d, err %v", c, err)
		}
	})
}

// TestParallelExtract checks that a matrix computed by the pool extracts a
// valid optimal policy (the backtrack consumes the same rows).
func TestParallelExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPts(rng, 200, 1<<9)
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		tr := buildTree(t, pts, 1<<9, kind, 5)
		m, err := NewMatrix(tr, 5, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.OptimalCost()
		if err != nil {
			t.Fatal(err)
		}
		cloaks, err := m.Extract()
		if err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, c := range cloaks {
			got += c.Area()
		}
		if got != want {
			t.Fatalf("extracted cost %d != optimal %d", got, want)
		}
	}
}

// TestRecomputeAfterMoves checks the public Recompute: after tree
// mutations it must agree with a freshly built matrix, sequentially and
// in parallel.
func TestRecomputeAfterMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randPts(rng, 150, 1<<9)
	tr := buildTree(t, pts, 1<<9, tree.Binary, 4)
	m, err := NewMatrix(tr, 4, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		idx := int32(rng.Intn(len(pts)))
		if err := tr.Move(idx, geo.Point{X: rng.Int31n(1 << 9), Y: rng.Int31n(1 << 9)}); err != nil {
			t.Fatal(err)
		}
	}
	tr.TakeDirty() // Recompute does not need the dirty set
	m.Recompute()
	fresh, err := NewMatrix(tr, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, fresh, m)
}

// TestParallelZeroAllocs is the regression test for the persistent worker
// pool: once the pool, its per-worker scratch arenas, and row storage are
// warm, a full parallel Recompute must not allocate at any worker count —
// the BENCH_bulkdp.json gate asserts the same property end to end. The
// arenas are sized by the tree's longest profile, not by |D|, so the
// property is pinned on both tree kinds and without Lemma 5's pruning.
func TestParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(13))
	pts := randPts(rng, 2000, 1<<11)
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		tr := buildTree(t, pts, 1<<11, kind, 5)
		for _, noPrune := range []bool{false, true} {
			for _, nw := range []int{1, 2, 4, 8} {
				m, err := NewMatrix(tr, 5, Options{Workers: nw, NoPrune: noPrune})
				if err != nil {
					t.Fatal(err)
				}
				m.Recompute() // warm pool, deques, arenas
				allocs := testing.AllocsPerRun(5, m.Recompute)
				if allocs != 0 {
					t.Errorf("%v noPrune=%v workers=%d: steady-state Recompute allocates %.1f/op, want 0",
						kind, noPrune, nw, allocs)
				}
			}
		}
	}
}

// TestScratchSizedByProfileBound pins the worker-scratch sizing: no
// combine of the tree builds a profile longer than profileBound says, so
// after a cold parallel pass every profile arena still has the capacity
// ensurePass gave it (the lazy growth never fired), and with Lemma 5's
// pruning that capacity is far below the |D|+1 only fold needs.
func TestScratchSizedByProfileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randPts(rng, 3000, 1<<11)
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		tr := buildTree(t, pts, 1<<11, kind, 5)
		for _, noPrune := range []bool{false, true} {
			m, err := NewMatrix(tr, 5, Options{Workers: 4, NoPrune: noPrune})
			if err != nil {
				t.Fatal(err)
			}
			longest := 0
			tr.PostOrder(func(id tree.NodeID) {
				children := tr.Children(id)
				if len(children) == 0 {
					return
				}
				bound := m.profileBound(id, children)
				var prefixes []profile
				m.fold(m.cs, children, &prefixes)
				for _, p := range prefixes {
					if len(p.js) > bound {
						t.Fatalf("%v noPrune=%v node %d: profile of %d entries, bound %d",
							kind, noPrune, id, len(p.js), bound)
					}
				}
				longest = max(longest, bound)
			})
			for w, cs := range m.dp.scratch {
				for name, got := range map[string]int{
					"touched": cap(cs.touched), "jsA": cap(cs.jsA), "jsB": cap(cs.jsB),
					"costsA": cap(cs.costsA), "costsB": cap(cs.costsB),
					"sfx": cap(cs.sfx), "sfxJ": cap(cs.sfxJ), "pad": cap(cs.pad) - 2*(lanes-1),
				} {
					if got != longest+1 {
						t.Errorf("%v noPrune=%v worker %d: cap(%s) = %d, want %d",
							kind, noPrune, w, name, got, longest+1)
					}
				}
				if len(cs.fold) != tr.Len()+1 {
					t.Errorf("worker %d: fold covers %d entries, want %d", w, len(cs.fold), tr.Len()+1)
				}
			}
			if !noPrune && longest >= tr.Len()/2 {
				t.Errorf("%v: pruned profile bound %d is not small against |D| = %d", kind, longest, tr.Len())
			}
		}
	}
}

// TestTaskCutoffParity pins the granularity knob: extreme cutoffs (every
// node its own task; the whole tree one task) must still be bit-identical
// to the sequential pass.
func TestTaskCutoffParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randPts(rng, 300, 1<<9)
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		tr := buildTree(t, pts, 1<<9, kind, 4)
		seq, err := NewMatrix(tr, 4, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, cutoff := range []int64{1, 64, 1 << 40} {
			par, err := NewMatrix(tr, 4, Options{Workers: 4, TaskCutoff: cutoff})
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, seq, par)
		}
	}
}

// TestComputeRowZeroAllocs is the regression test for the combine scratch:
// once row storage and scratch are warm, recomputing an interior node's
// row must not allocate (the old code allocated rows/touched/profile/sfx
// slices on every call — the dead scratchTouched field).
func TestComputeRowZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 500, 1<<10)
	for _, kind := range []tree.Kind{tree.Binary, tree.Quad} {
		tr := buildTree(t, pts, 1<<10, kind, 5)
		m, err := NewMatrix(tr, 5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		root := tr.Root()
		if tr.IsLeaf(root) {
			t.Fatal("test needs an interior root")
		}
		allocs := testing.AllocsPerRun(100, func() {
			m.computeRow(m.cs, root)
		})
		if allocs != 0 {
			t.Errorf("kind=%v: steady-state computeRow allocates %.1f/op, want 0", kind, allocs)
		}
	}
}
