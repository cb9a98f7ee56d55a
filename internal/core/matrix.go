package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"policyanon/internal/geo"
	"policyanon/internal/obs"
	"policyanon/internal/tree"
)

// inf is the unreachable-cost sentinel; kept well below MaxInt64 so that
// guarded additions cannot overflow.
const inf int64 = math.MaxInt64 / 4

// Options tunes the dynamic program. The zero value selects the fully
// optimized algorithm of Section V; the flags disable individual
// optimizations to recover the first-cut Bulk_dp of Algorithm 1 for
// correctness cross-checks and ablation benchmarks.
type Options struct {
	// NoPrune disables the Lemma 5 pass-up bound F'(m) =
	// [0..(k+1)h(m)] ∪ {d(m)}, reverting to F(m) = [0..d(m)-k] ∪ {d(m)}.
	NoPrune bool
	// NaiveCombine disables the two-stage temp-profile combine of
	// Section V and enumerates child pass-up tuples directly, as the
	// first-cut Algorithm 1 does (O(|D|^2) per binary node, O(|D|^4) per
	// quad node instead of O((kh)^2)).
	NaiveCombine bool
	// Workers selects intra-tree parallelism for the bottom-up pass: the
	// configuration matrix of independent sibling subtrees is computed on
	// a bounded work-stealing pool, leaf to root. The parallel schedule
	// computes exactly the same rows as the sequential one (each row
	// depends only on its children's finished rows), so results are
	// bit-identical regardless of the value.
	//
	// 0 selects automatic mode: GOMAXPROCS workers when the tree is large
	// enough to amortize pool startup, sequential otherwise. 1 forces the
	// sequential path. Values above 1 request exactly that many workers
	// even on small trees (capped at the node count).
	Workers int
	// TaskCutoff pins the fork/join sequential cutoff of the parallel
	// pass: a subtree whose estimated combine work (node weight =
	// |row| × children, summed over the subtree) is at or below the
	// cutoff runs as one sequential task on a single worker. 0 auto-tunes
	// from the tree's total weight and the worker count; see
	// docs/PERFORMANCE.md for when to override.
	TaskCutoff int64
}

// parallelMinNodes is the tree size below which automatic worker selection
// stays sequential: spawning and draining the pool costs on the order of
// tens of microseconds, which the whole DP of a small tree undercuts.
const parallelMinNodes = 4096

// workerCount resolves Options.Workers against the tree size.
func (o Options) workerCount(nodes int) int {
	w := o.Workers
	switch {
	case w < 0 || w == 1:
		return 1
	case w == 0:
		if nodes < parallelMinNodes {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > nodes {
		w = nodes
	}
	if w < 1 {
		w = 1
	}
	return w
}

// row is one row of the optimum configuration matrix M: the minimum
// subtree cost for each feasible pass-up count u of a node.
//
// The dense part covers u in [0..bound]; the entry u = d(m) is implicit
// with cost 0, because passing everything up forces zero cloaking in the
// whole subtree (lines 6 and 8 of Algorithm 1).
//
// A Matrix's rows are views into its two flat arenas (Matrix.layout);
// rows built outside a Matrix (the adaptive DP's) own their slices.
type row struct {
	d     int32
	bound int32 // -1 when the dense part is empty (d(m) < k)
	costs []int64
	// jpick[u] is the children pass-up total j whose combine realized
	// costs[u] (the argmin of the Section V merge). Storing it lets
	// extraction backtracking split j across two children in O(|row|)
	// instead of re-running the O(|row|²) fold at every visited node.
	// Leaves and the NaiveCombine path leave it empty; chooseCombine then
	// falls back to the from-scratch resolver.
	jpick []int32
}

// each iterates the finite entries of the row's feasible set F(m).
func (r *row) each(fn func(u int32, cost int64)) {
	for u := int32(0); u <= r.bound; u++ {
		if r.costs[u] < inf {
			fn(u, r.costs[u])
		}
	}
	fn(r.d, 0)
}

// at returns M[m][u], or inf when u is infeasible.
func (r *row) at(u int32) int64 {
	if u == r.d {
		return 0
	}
	if u >= 0 && u <= r.bound {
		return r.costs[u]
	}
	return inf
}

// Matrix is the optimum configuration matrix of Algorithm 1, maintained
// bottom-up over a cloaking tree. It supports full (bulk) computation —
// sequentially or on a work-stealing worker pool (Options.Workers) — and
// incremental recomputation of rows whose subtree occupancy changed.
// Methods are not safe for concurrent use; the worker pool is internal to
// one Recompute pass.
type Matrix struct {
	t    *tree.Tree
	k    int
	opt  Options
	rows []row

	// costArena and pickArena back every row's costs and jpick: one flat
	// array each, laid out by layout at every full pass.
	costArena []int64
	pickArena []int32

	// obsCtx carries the tracer (and enclosing span) installed at
	// construction so that later phases — extraction, incremental
	// updates — nest under the same trace without threading a context
	// through every method. Nil means tracing disabled.
	obsCtx context.Context

	// cs is the matrix's own combine scratch, used by the sequential
	// bottom-up pass, incremental updates, and extraction backtracking.
	cs *combineScratch

	// dp is the persistent parallel worker pool (nil until the first
	// parallel pass): parked goroutines plus per-worker scratch arenas
	// and scheduling buffers, reused so warm passes allocate nothing. A
	// runtime.AddCleanup stops the goroutines when the Matrix dies.
	dp *dpPool

	// Delta-extraction state (see ExtractDelta): the last realized
	// assignment and, per node, the pass-up target chosen and the point
	// list passed up when it was extracted. A subtree whose rows were all
	// untouched since the last extraction realizes the same configuration
	// for the same target, so ExtractDelta reuses the memo instead of
	// descending. stale marks rows recomputed since the last extraction
	// (Update keeps the set ancestor-closed by construction: it recomputes
	// every ancestor of a dirty node); haveBase gates the whole mechanism
	// and is dropped by Recompute, which rewrites rows without marking.
	// A full pass leaves the per-point baseline interned, as it extracted
	// it (baseTable[baseIDs[p]], shared read-only with the policy built on
	// it); ExtractDelta reads it into cloaks before its first pass, so an
	// install that never moves writes no rectangle per point.
	cloaks    []geo.Rect
	baseTable []geo.Rect
	baseIDs   []int32
	chosen    []int32
	passUp    [][]int32
	stale     []bool
	staleList []tree.NodeID
	haveBase  bool
}

// NewMatrix runs the bottom-up dynamic program over the whole tree.
func NewMatrix(t *tree.Tree, k int, opt Options) (*Matrix, error) {
	return NewMatrixContext(context.Background(), t, k, opt)
}

// NewMatrixContext is NewMatrix with tracing: the dynamic-program main
// loop (combine + pass-up over every node) is recorded as a
// "bulkdp.combine" span carrying worker/steal counters, and the context is
// retained so Extract and Update report under the same trace.
func NewMatrixContext(ctx context.Context, t *tree.Tree, k int, opt Options) (*Matrix, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	m := &Matrix{t: t, k: k, opt: opt, obsCtx: ctx, cs: getScratch(t.Len() + 1)}
	m.Recompute()
	return m, nil
}

// Recompute re-runs the full bottom-up dynamic program over the current
// tree, reusing all row and scratch storage. Steady-state recomputation
// performs no allocations on the sequential path; with Options.Workers > 1
// the pass runs on the work-stealing pool and produces bit-identical rows.
func (m *Matrix) Recompute() {
	// A full pass rewrites every row without per-row stale marking, so any
	// previously extracted assignment stops being a usable delta baseline.
	m.haveBase = false
	_, sp := obs.Start(m.octx(), "bulkdp.combine")
	profileLen := m.layout()
	var stats []workerStats
	if nw := m.opt.workerCount(m.t.NumNodes()); nw > 1 {
		stats = m.computeAllParallel(nw, profileLen)
	} else {
		m.cs.ensurePass(m.t.Len()+1, profileLen)
		m.t.PostOrder(func(id tree.NodeID) { m.computeRow(m.cs, id) })
	}
	if sp != nil {
		sp.SetInt("nodes", int64(m.t.NumNodes()))
		sp.SetInt("k", int64(m.k))
		if stats != nil && m.dp != nil {
			sp.SetInt("cutoff", m.dp.cutoff)
		}
		annotateWorkers(sp, stats)
		sp.End()
	}
}

// annotateWorkers records per-worker node and steal counters on a
// bulkdp.combine span (no-op for sequential passes).
func annotateWorkers(sp *obs.Span, stats []workerStats) {
	if len(stats) == 0 {
		return
	}
	sp.SetInt("workers", int64(len(stats)))
	var steals, tasks int64
	for i, ws := range stats {
		sp.SetInt(fmt.Sprintf("w%d.nodes", i), ws.nodes)
		sp.SetInt(fmt.Sprintf("w%d.tasks", i), ws.tasks)
		sp.SetInt(fmt.Sprintf("w%d.steals", i), ws.steals)
		steals += ws.steals
		tasks += ws.tasks
	}
	sp.SetInt("steals", steals)
	sp.SetInt("tasks", tasks)
}

// octx returns the construction-time observability context (Background
// for matrices built without one, e.g. zero values in tests).
func (m *Matrix) octx() context.Context {
	if m.obsCtx != nil {
		return m.obsCtx
	}
	return context.Background()
}

// Tree returns the underlying cloaking tree.
func (m *Matrix) Tree() *tree.Tree { return m.t }

// OptimalCost returns the cost of an optimal policy-aware sender
// k-anonymous policy on the snapshot: the minimum cost of a complete
// configuration with k-summation (Lemmas 2–4). It fails with
// ErrInsufficientUsers when |D| < k.
func (m *Matrix) OptimalCost() (int64, error) {
	root := m.t.Root()
	if m.t.Count(root) == 0 {
		return 0, nil
	}
	if m.t.Count(root) < m.k {
		return 0, fmt.Errorf("%w: |D|=%d, k=%d", ErrInsufficientUsers, m.t.Count(root), m.k)
	}
	c := m.rows[root].at(0)
	if c >= inf {
		return 0, fmt.Errorf("core: no complete configuration found (internal error)")
	}
	return c, nil
}

// Row returns the feasible entries of node id's row, for tests and
// diagnostics, as parallel (u, cost) slices. Both slices are freshly
// allocated on every call: mutating them never corrupts the matrix (the
// aliasing regression test in the engine package relies on this).
func (m *Matrix) Row(id tree.NodeID) ([]int32, []int64) {
	var us []int32
	var cs []int64
	m.rows[id].each(func(u int32, c int64) {
		us = append(us, u)
		cs = append(cs, c)
	})
	return us, cs
}

// bound returns the top of the dense pass-up range for node id.
func (m *Matrix) bound(id tree.NodeID) int32 {
	d := m.t.Count(id)
	if d < m.k {
		return -1
	}
	b := d - m.k
	if !m.opt.NoPrune {
		if lim := (m.k + 1) * m.t.Height(id); lim < b {
			b = lim
		}
	}
	return int32(b)
}

// ensureRows grows the row table to cover NodeIDs below n. It must not run
// concurrently with row computation; parallel passes pre-size before
// spawning workers.
func (m *Matrix) ensureRows(n int) {
	if old := len(m.rows); n > old {
		m.rows = slices.Grow(m.rows, n-old)[:n]
		clear(m.rows[old:])
	}
}

// layout gives every live row a view of exactly bound+1 entries into the
// matrix's two flat arenas, costs and jpick at the same offset, in post
// order: a subtree's rows are contiguous and its root's row follows them,
// so a combine reads its children's rows from one stretch of memory. The
// arenas are reused when they already cover the tree, so a warm full pass
// allocates nothing, and every view is capped at its slot. Rows of dead
// node ids are dropped first, so an id a later split revives can never
// write into a slot the layout gave another node. A row Update grows past
// its slot moves to a slice of its own until the next full pass. layout
// returns the longest profile any combine of the pass can build
// (profileBound), which sizes the scratch.
func (m *Matrix) layout() (profileLen int) {
	m.ensureRows(m.t.NodeCap())
	clear(m.rows)
	total := 0
	m.t.PostOrder(func(id tree.NodeID) {
		total += int(m.bound(id)) + 1
		profileLen = max(profileLen, m.profileBound(id, m.t.Children(id)))
	})
	if cap(m.costArena) < total {
		m.costArena = make([]int64, total)
		m.pickArena = make([]int32, total)
	}
	off := 0
	m.t.PostOrder(func(id tree.NodeID) {
		end := off + int(m.bound(id)) + 1
		m.rows[id].costs = m.costArena[off:off:end]
		m.rows[id].jpick = m.pickArena[off:off:end]
		off = end
	})
	return profileLen
}

// computeRow fills node id's row from its children's rows (which must be
// current) using the given scratch. This is the body of Algorithm 1's
// main loop; with warm scratch and row storage it allocates nothing.
func (m *Matrix) computeRow(cs *combineScratch, id tree.NodeID) {
	m.ensureRows(int(id) + 1)
	r := &m.rows[id]
	r.d = int32(m.t.Count(id))
	r.bound = m.bound(id)
	if r.bound < 0 {
		r.costs = r.costs[:0]
		r.jpick = r.jpick[:0]
		return
	}
	if cap(r.costs) < int(r.bound)+1 {
		r.costs = make([]int64, r.bound+1)
	} else {
		r.costs = r.costs[:r.bound+1]
	}
	area := m.t.Area(id)
	if m.t.IsLeaf(id) {
		// Lines 7-10 of Algorithm 1: cloak d(m)-u locations at the leaf.
		r.jpick = r.jpick[:0]
		for u := int32(0); u <= r.bound; u++ {
			r.costs[u] = int64(r.d-u) * area
		}
		return
	}
	if m.opt.NaiveCombine {
		r.jpick = r.jpick[:0]
		m.combineNaive(id, r, area)
		return
	}
	children := m.t.Children(id)
	if len(children) == 2 {
		combinePair(cs, r, &m.rows[children[0]], &m.rows[children[1]], area, m.k)
		return
	}
	p := m.fold(cs, children, nil)
	rowFromProfile(cs, r, p.js, p.costs, area, m.k)
}

// profile is the temp structure of Section V: achievable total pass-up
// counts j with their minimum summed child costs, sorted by j.
type profile struct {
	js    []int32
	costs []int64
}

// at returns the profile cost at exactly j, or inf.
func (p *profile) at(j int32) int64 {
	i := sort.Search(len(p.js), func(i int) bool { return p.js[i] >= j })
	if i < len(p.js) && p.js[i] == j {
		return p.costs[i]
	}
	return inf
}

// fold computes the temp profile over the given children: for every
// achievable j = sum of the children's pass-up counts, the minimum summed
// cost of the children's rows. When prefixes is non-nil it receives the
// intermediate profile after each child (used by extraction backtracking).
func (m *Matrix) fold(cs *combineScratch, children []tree.NodeID, prefixes *[]profile) profile {
	rows := cs.rows[:0]
	for _, ch := range children {
		rows = append(rows, &m.rows[ch])
	}
	cs.rows = rows
	return foldRows(cs, rows, prefixes)
}

// foldRows is the combine over explicit rows, shared by the static and
// adaptive dynamic programs. cs.fold must cover the maximum achievable
// j + 1 entries; it is restored to inf before return.
//
// With prefixes == nil the returned profile lives in cs's double-buffered
// arenas and is valid only until the next combine on the same scratch —
// the steady-state path allocates nothing. With prefixes != nil every
// intermediate (and the final) profile is freshly allocated, because
// extraction retains them across the backtrack.
func foldRows(cs *combineScratch, rows []*row, prefixes *[]profile) profile {
	fresh := prefixes != nil
	js, costs := cs.jsA[:0], cs.costsA[:0]
	if fresh {
		js, costs = nil, nil
	}
	rows[0].each(func(u int32, c int64) {
		js = append(js, u)
		costs = append(costs, c)
	})
	if fresh {
		*prefixes = append(*prefixes, profile{js: js, costs: costs})
	} else {
		cs.jsA, cs.costsA = js, costs // persist arena growth
	}
	for _, rc := range rows[1:] {
		touched := cs.touched[:0]
		for i, j := range js {
			base := costs[i]
			rc.each(func(u int32, c int64) {
				nj := j + u
				if nc := base + c; nc < cs.fold[nj] {
					if cs.fold[nj] == inf {
						touched = append(touched, nj)
					}
					cs.fold[nj] = nc
				}
			})
		}
		cs.touched = touched
		slices.Sort(touched)
		var njs []int32
		var ncosts []int64
		if fresh {
			njs = make([]int32, 0, len(touched))
			ncosts = make([]int64, 0, len(touched))
		} else {
			njs, ncosts = cs.jsB[:0], cs.costsB[:0]
		}
		for _, j := range touched {
			njs = append(njs, j)
			ncosts = append(ncosts, cs.fold[j])
			cs.fold[j] = inf
		}
		if fresh {
			*prefixes = append(*prefixes, profile{js: njs, costs: ncosts})
		} else {
			// Swap arenas: the pair js/costs occupied is free for the
			// next child's merge.
			cs.jsB, cs.costsB = cs.jsA, cs.costsA
			cs.jsA, cs.costsA = njs, ncosts
		}
		js, costs = njs, ncosts
	}
	return profile{js: js, costs: costs}
}

// combinePair is the combine of a node with two children: the truncated
// pair fold, then the row derivation. It fills r exactly as the full
// two-child fold (foldPair, kept in the tests as the oracle) followed by
// rowFromProfile would, costs and jpick alike.
func combinePair(cs *combineScratch, r, r0, r1 *row, area int64, k int) {
	p := foldPairTrunc(cs, r0, r1, int(r.bound)+k, area, foldDense)
	rowFromProfile(cs, r, p.js, p.costs, area, k)
}

// foldPairTrunc is the two-child combine specialized to the rows'
// dense+spike shape — each row is a dense cost range [0..bound] plus the
// implicit zero-cost entry at u = d — and cut to what rowFromProfile reads
// of it. rowFromProfile reads temp[j] exactly only for j ≤ bound+k = lim,
// where bound is the parent's; above lim it reads nothing but the suffix
// minimum of temp[j] + j·area and its leftmost witness. So the fold is
// computed on the triangle u0+u1 ≤ lim of the dense min-plus convolution,
// plus the two shifted copies of the dense parts (the other child passing
// everything up for free) clipped to lim, and everything above lim becomes
// one tail entry (pairTail). When lim ≥ d0+d1 nothing is cut. dense folds
// the triangle (foldDense in the combine). The profile lives in the
// scratch's arena until the next combine.
func foldPairTrunc(cs *combineScratch, r0, r1 *row, lim int, area int64, dense denseFold) profile {
	maxJ := int(r0.d) + int(r1.d)
	top := min(lim, maxJ)
	cs.ensureFold(top + 1)
	fold := cs.fold
	c0s, c1s := r0.costs, r1.costs
	if len(c0s) > 0 && len(c1s) > 0 {
		dense(cs, fold[:min(top+1, len(c0s)+len(c1s)-1)], c0s, c1s)
	}
	for u0 := 0; u0 < len(c0s) && int(r1.d)+u0 <= top; u0++ {
		if j := int(r1.d) + u0; c0s[u0] < fold[j] {
			fold[j] = c0s[u0]
		}
	}
	for u1 := 0; u1 < len(c1s) && int(r0.d)+u1 <= top; u1++ {
		if j := int(r0.d) + u1; c1s[u1] < fold[j] {
			fold[j] = c1s[u1]
		}
	}
	if maxJ <= top && fold[maxJ] > 0 {
		fold[maxJ] = 0
	}
	js, costs := cs.jsA[:0], cs.costsA[:0]
	for j := 0; j <= top; j++ {
		if c := fold[j]; c < inf {
			js = append(js, int32(j))
			costs = append(costs, c)
			fold[j] = inf
		}
	}
	if top < maxJ {
		j, c := pairTail(r0, r1, top, area)
		js = append(js, j)
		costs = append(costs, c)
	}
	cs.jsA, cs.costsA = js, costs
	return profile{js: js, costs: costs}
}

// mergeStepPairs is what one step of mergeRuns costs in pairs of minPlus:
// foldDense merges runs unless the merge steps, so weighted, outnumber
// the pairs of the dense triangle. Measured with BenchmarkMinPlus and
// BenchmarkMinPlusPieces (docs/PERFORMANCE.md §3h).
const mergeStepPairs = 4

// denseFold writes the dense min-plus convolution of two child rows' cost
// ranges, cut to its first len(out) totals, into out, which holds inf on
// entry. foldDense is the one the combine uses; the tests hold its two
// halves, foldMinPlus and foldRuns, to each other.
type denseFold func(cs *combineScratch, out, c0, c1 []int64)

// foldDense is the dense part of the two-child combine. It splits each row
// into its maximal convex runs of finite entries and, unless the merges of
// every pair of runs would cost more than the dense triangle, folds by
// merging (foldRuns); otherwise by the blocked kernel (foldMinPlus). Both
// write exactly the same out (DESIGN.md §10).
func foldDense(cs *combineScratch, out, c0, c1 []int64) {
	cs.splitRuns(c0, c1)
	if mergeStepPairs*cs.mergeSteps(c0, c1) > trianglePairs(len(c0), len(c1), len(out)-1) {
		foldMinPlus(cs, out, c0, c1)
		return
	}
	foldRuns(cs, out, c0, c1)
}

// foldMinPlus is the dense fold by minPlus, for rows of many runs: the
// shorter row is walked, the longer reversed.
func foldMinPlus(cs *combineScratch, out, c0, c1 []int64) {
	if len(c0) > len(c1) {
		c0, c1 = c1, c0
	}
	minPlus(out, c0, cs.reversed(c1))
}

// foldRuns is the dense fold as an elementwise minimum over every pair of
// convex runs of c0 and c1 (splitRuns must have split exactly these rows)
// of the pair's convolution, merged by mergeRuns. Every pair (u0, u1) of
// finite entries lies in exactly one pair of runs, a pair holding an inf
// entry lowers no minimum, and a minimum does not depend on the order it
// is taken in, so out is exactly what minPlus writes. A pair of runs
// costs the length of its convolution, cut at len(out).
func foldRuns(cs *combineScratch, out, c0, c1 []int64) {
	runs0, runs1 := cs.runs[:cs.split], cs.runs[cs.split:]
	s0s, s1s := cs.slopes[:len(c0)], cs.slopes[len(c0):]
	for r0 := 0; r0 < len(runs0); r0 += 2 {
		lo0, hi0 := int(runs0[r0]), int(runs0[r0+1])
		for r1 := 0; r1 < len(runs1) && lo0+int(runs1[r1]) < len(out); r1 += 2 {
			lo1, hi1 := int(runs1[r1]), int(runs1[r1+1])
			lo := lo0 + lo1
			hi := min(len(out), lo+hi0-lo0+hi1-lo1-1)
			mergeRuns(out[lo:hi], c0[lo0]+c1[lo1], s0s[lo0:hi0], s1s[lo1:hi1])
		}
	}
}

// splitRuns splits both child rows into convex runs, into the scratch's
// run and slope buffers: c0's runs, then c1's from split on, and c0's
// slopes, then c1's from len(c0) on.
func (cs *combineScratch) splitRuns(c0, c1 []int64) {
	n := len(c0) + len(c1)
	if cap(cs.slopes) < n {
		cs.slopes = make([]int64, n)
	}
	cs.runs = convexRuns(cs.runs[:0], cs.slopes[:len(c0)], c0)
	cs.split = len(cs.runs)
	cs.runs = convexRuns(cs.runs, cs.slopes[len(c0):n], c1)
}

// mergeSteps is p0·len(c1) + p1·len(c0) for the run counts p splitRuns
// found: a bound on the steps foldRuns takes over c0 and c1.
func (cs *combineScratch) mergeSteps(c0, c1 []int64) int64 {
	p0, p1 := cs.split/2, (len(cs.runs)-cs.split)/2
	return int64(p0)*int64(len(c1)) + int64(p1)*int64(len(c0))
}

// convexRuns splits c into maximal convex runs of finite entries, greedily
// from the left: a run ends at an inf entry, at the end of c, or where a
// slope falls below the one before it. It appends each run's [start, end)
// to runs and writes into slopes[:len(c)] each run entry's slope to its
// successor, inf at the run's last entry. A run of one entry is followed
// by an inf entry or ends c, so there are at most (len(c)+1)/2 runs.
func convexRuns(runs []int32, slopes, c []int64) []int32 {
	for lo := 0; lo < len(c); {
		if c[lo] >= inf {
			lo++
			continue
		}
		hi := lo + 1
		for ; hi < len(c) && c[hi] < inf; hi++ {
			s := c[hi] - c[hi-1]
			if hi > lo+1 && s < slopes[hi-2] {
				break
			}
			slopes[hi-1] = s
		}
		slopes[hi-1] = inf
		runs = append(runs, int32(lo), int32(hi))
		lo = hi
	}
	return runs
}

// mergeRuns lowers out[t] to the min-plus convolution of two convex runs
// at t, for t < len(out) ≤ len(as)+len(bs)-1; v is the sum of the runs'
// first entries, and as and bs are the runs' slopes as convexRuns writes
// them. The convolution of two convex sequences takes its slopes from
// both in ascending order, so the walk from (0, 0) that always steps
// along the smaller slope meets a minimum pair of every total, and the
// total's value is v plus the slopes stepped along. The inf slope at a
// run's last entry keeps the walk inside both runs (it meets the other
// run's inf only at the last total). The step branches: on the DP's rows
// that beat a branch-free select by 1.2–1.4× in BenchmarkCombine.
func mergeRuns(out []int64, v int64, as, bs []int64) {
	i, j := 0, 0
	for t := range out {
		out[t] = min(out[t], v)
		if x, y := as[i], bs[j]; x <= y {
			v += x
			i++
		} else {
			v += y
			j++
		}
	}
}

// trianglePairs counts the pairs (u0, u1) in [0, n0) × [0, n1) with
// u0+u1 ≤ top, by inclusion–exclusion over the triangle u0+u1 ≤ top.
func trianglePairs(n0, n1, top int) int64 {
	tri := func(x int) int64 {
		if x < 0 {
			return 0
		}
		return int64(x+1) * int64(x+2) / 2
	}
	return tri(top) - tri(top-n0) - tri(top-n1) + tri(top-n0-n1)
}

// lanes is minPlus's block width: how many consecutive totals one walk
// over the shorter row accumulates in registers.
const lanes = 4

// minPlus writes out[j] = min over u0+u1 = j of a[u0] + b[u1], for j <
// len(out) ≤ len(a)+len(b)-1: the dense min-plus convolution of two cost
// rows, cut to its first len(out) totals. rb is b reversed between lanes-1
// inf entries on each side (combineScratch.reversed).
//
// The kernel is blocked over the output: for lanes consecutive totals
// j0..j0+lanes-1 it walks the a entries that meet any of them once, and
// each u0 meets a window of rb holding b[j0+lanes-1-u0 .. j0-u0], so a
// pair costs a load, an add and a min the compiler turns into a
// conditional move. Nothing is stored until the block is done and nothing
// branches on a cost. A window that reaches past either end of b reads the
// inf padding, which lowers no minimum; inf is MaxInt64/4, so even inf+inf
// cannot overflow, and an accumulator that starts at inf never rises above
// it. A min is order-free, so the result is exactly the scatter loop's
// (foldPair in the tests).
func minPlus(out, a, rb []int64) {
	n, lb := len(out), len(rb)-2*(lanes-1)
	for j0 := 0; j0 < n; j0 += lanes {
		lo := max(0, j0-lb+1)
		hi := min(j0+lanes, len(a))
		t := lb - 1 - j0 + lo // rb[t] is b[j0+lanes-1-lo], or padding
		x0, x1, x2, x3 := minPlusBlock(a[lo:hi], rb[t:t+hi-lo+lanes-1])
		if j0+lanes <= n {
			o := out[j0 : j0+lanes : j0+lanes]
			o[0], o[1], o[2], o[3] = x0, x1, x2, x3
			continue
		}
		tail := [lanes]int64{x0, x1, x2, x3}
		copy(out[j0:], tail[:])
	}
}

// minPlusBlock is minPlus's inner loop for one block: lane l's total pairs
// as[i] with w[i+lanes-1-l], two entries of as per iteration. It is kept
// out of line so that its four accumulators get registers of their own:
// inlined into minPlus they are spilled to the stack on every iteration.
//
//go:noinline
func minPlusBlock(as, w []int64) (x0, x1, x2, x3 int64) {
	x0, x1, x2, x3 = inf, inf, inf, inf
	i := 0
	for ; i+1 < len(as); i += 2 {
		c, e := as[i], as[i+1]
		v := w[i : i+lanes+1 : i+lanes+1]
		x3 = min(x3, c+v[0], e+v[1])
		x2 = min(x2, c+v[1], e+v[2])
		x1 = min(x1, c+v[2], e+v[3])
		x0 = min(x0, c+v[3], e+v[4])
	}
	if i < len(as) {
		c := as[i]
		v := w[i : i+lanes : i+lanes]
		x3 = min(x3, c+v[0])
		x2 = min(x2, c+v[1])
		x1 = min(x1, c+v[2])
		x0 = min(x0, c+v[3])
	}
	return x0, x1, x2, x3
}

// pairTail is the one entry foldPairTrunc keeps above lim: (j*, temp[j*])
// where j* is the leftmost j > lim minimising temp[j] + j·area. With
// c'(u) = c(u) + u·area it is the lexicographic minimum of
// (c0'(u0) + c1'(u1), u0+u1) over every pair of finite entries, spikes
// included, with u0+u1 > lim — O(|row0| + |row1|) with one right-to-left
// suffix minimum of c1' (ties to the smaller u1). The suffix minima
// rowFromProfile builds over the cut profile then equal those over the full
// one at every index it reads, ties and witnesses included (DESIGN.md §10).
// The spike × spike pair (d0, d1) lies above lim whenever anything is cut,
// so the minimum exists.
func pairTail(r0, r1 *row, lim int, area int64) (int32, int64) {
	d0, d1 := int(r0.d), int(r1.d)
	c0s, c1s := r0.costs, r1.costs
	bestV, bestJ := int64(d0+d1)*area, d0+d1
	consider := func(v int64, j int) {
		if v < bestV || v == bestV && j < bestJ {
			bestV, bestJ = v, j
		}
	}
	// As u0 rises the dense partners u1 > lim-u0 only gain entries on the
	// left, so one running minimum of c1' over [next..b1] serves every u0.
	sfxV, sfxJ := inf, -1
	next := len(c1s)
	for u0, c0 := range c0s {
		if c0 >= inf {
			continue
		}
		for lo := max(lim-u0+1, 0); next > lo; {
			next--
			if c1 := c1s[next]; c1 < inf {
				if v := c1 + int64(next)*area; v <= sfxV {
					sfxV, sfxJ = v, next
				}
			}
		}
		c0p := c0 + int64(u0)*area
		if sfxJ >= 0 {
			consider(c0p+sfxV, u0+sfxJ)
		}
		if u0+d1 > lim {
			consider(c0p+int64(d1)*area, u0+d1)
		}
	}
	for u1, c1 := range c1s {
		if c1 < inf && d0+u1 > lim {
			consider(c1+int64(d0+u1)*area, d0+u1)
		}
	}
	return int32(bestJ), bestV - int64(bestJ)*area
}

// rowFromProfile is the second stage of the Section V combine: from the
// temp profile it derives M[m][u] = min( temp[u],
// min_{j >= u+k} temp[j] + (j-u)*area ) for each u in the dense range,
// using suffix minima of temp[j] + j*area for O(1) work per u. Alongside
// each cost it records the argmin j into r.jpick (ties resolve to the
// exact entry, then the leftmost suffix witness, so repeated computations
// of the same row pick the same configuration).
func rowFromProfile(cs *combineScratch, r *row, js []int32, costs []int64, area int64, k int) {
	n := len(js)
	if cap(cs.sfx) < n+1 {
		cs.sfx = make([]int64, n+1)
	}
	if cap(cs.sfxJ) < n+1 {
		cs.sfxJ = make([]int32, n+1)
	}
	sfx := cs.sfx[:n+1]
	sfxJ := cs.sfxJ[:n+1]
	sfx[n], sfxJ[n] = inf, -1
	for i := n - 1; i >= 0; i-- {
		if v := costs[i] + int64(js[i])*area; v <= sfx[i+1] {
			sfx[i], sfxJ[i] = v, js[i]
		} else {
			sfx[i], sfxJ[i] = sfx[i+1], sfxJ[i+1]
		}
	}
	if cap(r.jpick) < int(r.bound)+1 {
		r.jpick = make([]int32, r.bound+1)
	} else {
		r.jpick = r.jpick[:r.bound+1]
	}
	exact := 0 // first index with js[exact] >= u
	thresh := 0
	for u := int32(0); u <= r.bound; u++ {
		for exact < n && js[exact] < u {
			exact++
		}
		best, bestJ := inf, u
		if exact < n && js[exact] == u {
			best = costs[exact]
		}
		for thresh < n && js[thresh] < u+int32(k) {
			thresh++
		}
		if sfx[thresh] < inf {
			if v := sfx[thresh] - int64(u)*area; v < best {
				best, bestJ = v, sfxJ[thresh]
			}
		}
		r.costs[u] = best
		r.jpick[u] = bestJ
	}
}

// combineNaive is the first-cut combine of Algorithm 1 lines 13-19: for
// each target u it enumerates all tuples of child pass-ups directly.
func (m *Matrix) combineNaive(id tree.NodeID, r *row, area int64) {
	for u := int32(0); u <= r.bound; u++ {
		r.costs[u] = inf
	}
	children := m.t.Children(id)
	var rec func(ci int, j int32, cost int64)
	rec = func(ci int, j int32, cost int64) {
		if ci == len(children) {
			// j locations are passed up by the children in total; node id
			// may pass all of them up (u=j) or cloak at least k (u<=j-k).
			if j <= r.bound && cost < r.costs[j] {
				r.costs[j] = cost
			}
			hi := j - int32(m.k)
			if hi > r.bound {
				hi = r.bound
			}
			for u := int32(0); u <= hi; u++ {
				if v := cost + int64(j-u)*area; v < r.costs[u] {
					r.costs[u] = v
				}
			}
			return
		}
		m.rows[children[ci]].each(func(cu int32, cc int64) {
			rec(ci+1, j+cu, cost+cc)
		})
	}
	rec(0, 0, 0)
}

// Update incrementally refreshes the matrix after tree mutations: it drains
// the tree's dirty set, adds all ancestors, and recomputes the affected
// rows children-first. This is the incremental maintenance of Section IV.
// It returns the number of rows recomputed.
func (m *Matrix) Update() int {
	dirty := m.t.TakeDirty()
	if len(dirty) == 0 {
		return 0
	}
	_, sp := obs.Start(m.octx(), "bulkdp.update")
	m.cs.ensureFold(m.t.Len() + 1)
	if m.cs.affected == nil {
		m.cs.affected = make(map[tree.NodeID]struct{})
	}
	affected := m.cs.affected
	for _, id := range dirty {
		for n := id; n != tree.None; n = m.t.Parent(n) {
			if _, ok := affected[n]; ok {
				break
			}
			affected[n] = struct{}{}
		}
	}
	order := m.cs.order[:0]
	for id := range affected {
		order = append(order, id)
	}
	sort.Slice(order, func(a, b int) bool {
		return m.t.Height(order[a]) > m.t.Height(order[b])
	})
	for _, id := range order {
		m.computeRow(m.cs, id)
		m.markStale(id)
	}
	clear(affected)
	m.cs.order = order
	if sp != nil {
		sp.SetInt("dirty", int64(len(dirty)))
		sp.SetInt("rows", int64(len(order)))
		sp.End()
	}
	return len(order)
}

// markStale records that node id's row was recomputed since the last
// extraction. Entries are cleared wholesale by the next successful
// extraction (clearStale), so ids that die in a later collapse merely
// force a visit if the id is ever reused — never a wrong skip.
func (m *Matrix) markStale(id tree.NodeID) {
	for len(m.stale) <= int(id) {
		m.stale = append(m.stale, false)
	}
	if !m.stale[id] {
		m.stale[id] = true
		m.staleList = append(m.staleList, id)
	}
}

// clearStale resets the recomputed-row set after an extraction pass has
// consumed it.
func (m *Matrix) clearStale() {
	for _, id := range m.staleList {
		if int(id) < len(m.stale) {
			m.stale[id] = false
		}
	}
	m.staleList = m.staleList[:0]
}

// ensureAssignState sizes the delta-extraction memo for the current tree.
func (m *Matrix) ensureAssignState() {
	nc := m.t.NodeCap()
	for len(m.chosen) < nc {
		m.chosen = append(m.chosen, -1)
	}
	for len(m.passUp) < nc {
		m.passUp = append(m.passUp, nil)
	}
	for len(m.stale) < nc {
		m.stale = append(m.stale, false)
	}
}
