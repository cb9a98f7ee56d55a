package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"policyanon/internal/tree"
)

// This file implements the parallel bottom-up pass of the dynamic program
// (Options.Workers) with granularity-adaptive scheduling: instead of one
// task per tree node (whose combine is often a handful of microseconds —
// too fine to amortize deque traffic and cross-worker cache misses), the
// tree is partitioned into subtree-sized tasks by a sequential cutoff,
// the classic fork/join threshold. A node whose estimated subtree work is
// at or below the cutoff becomes ONE task computed sequentially by a
// single worker (cache-warm, zero scheduling overhead inside); only nodes
// above the cutoff are split, their row combined as a dedicated task once
// the child subtrees finish.
//
// Work is estimated per node as |row| × max(1, children) — the dense row
// length bound(m)+1 of the Section V combine times the child count it
// folds — and summed bottom-up into subtree weights. The cutoff
// auto-tunes to totalWeight / (workers × tasksPerWorker), floored at
// minTaskWeight, so a pass yields on the order of tasksPerWorker stealable
// tasks per worker regardless of tree shape (Options.TaskCutoff overrides
// the auto-tuned value; see docs/PERFORMANCE.md).
//
// Scheduling is by dependency countdown over SPLIT nodes only: every
// split node starts with its child count pending; the worker that
// finishes a split node's last child task enqueues the split node onto
// its own deque. Idle workers steal from the head of a victim's deque
// (FIFO), keeping stolen work coarse. Workers, deques, per-worker combine
// scratch arenas, and all index buffers live in a dpPool retained by the
// Matrix across passes, so a warm parallel Recompute allocates nothing —
// the pool's goroutines park between passes and are torn down by a
// runtime.AddCleanup when the Matrix is collected.
//
// Correctness does not depend on the schedule. computeRow(id) reads only
// the finished rows of id's children; the atomic pending countdown gives
// the release/acquire edge (Go memory model, sync/atomic) between a child
// subtree's rows being written and the split parent observing the count
// hit zero. Every schedule therefore computes exactly the rows the
// sequential PostOrder does, in some children-first order — the golden
// parity tests assert bit-identical output.

const (
	// tasksPerWorker targets how many stealable tasks the cutoff should
	// yield per worker: enough slack for work stealing to balance skewed
	// trees, few enough that per-task overhead stays noise.
	tasksPerWorker = 8
	// minTaskWeight floors the auto-tuned cutoff: below this much
	// estimated combine work, a task is too small to pay for its own
	// scheduling (deque push/pop plus a possible steal).
	minTaskWeight = 256
)

// workerStats counts one DP worker's contribution, reported on the
// bulkdp.combine span.
type workerStats struct {
	nodes  int64 // rows this worker computed
	tasks  int64 // tasks (subtrees or split-node combines) this worker ran
	steals int64 // tasks taken from another worker's deque
}

// dpWorker is one worker's deque. Push and pop operate on the tail
// (LIFO, cache-warm, parent-after-children); steal takes from the head.
// A mutex keeps the implementation obviously correct; the unit of work (a
// whole subtree, or a split node's combine) is large enough that lock
// traffic is noise.
type dpWorker struct {
	mu   sync.Mutex
	q    []tree.NodeID
	head int // first live entry; stealing advances it instead of reslicing,
	// so the deque keeps its full backing array across passes (reslicing
	// q[1:] would leak front capacity and force reallocation every pass).
}

func (w *dpWorker) push(id tree.NodeID) {
	w.mu.Lock()
	w.q = append(w.q, id)
	w.mu.Unlock()
}

func (w *dpWorker) pop() (tree.NodeID, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.q); n > w.head {
		id := w.q[n-1]
		w.q = w.q[:n-1]
		if len(w.q) == w.head {
			w.q, w.head = w.q[:0], 0
		}
		return id, true
	}
	return tree.None, false
}

func (w *dpWorker) steal() (tree.NodeID, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.q) > w.head {
		id := w.q[w.head]
		w.head++
		if len(w.q) == w.head {
			w.q, w.head = w.q[:0], 0
		}
		return id, true
	}
	return tree.None, false
}

// dpPool is a Matrix's persistent worker pool: nw parked goroutines plus
// every buffer a pass needs, reused across Recompute calls so the warm
// steady state allocates nothing. The pool must not reference the Matrix
// between passes (cur is cleared after each pass): the Matrix's cleanup —
// registered via runtime.AddCleanup — stops the goroutines once the
// Matrix is unreachable, and a cleanup never runs while its argument can
// reach the object it watches.
type dpPool struct {
	nw       int
	workers  []*dpWorker
	scratch  []*combineScratch
	stats    []workerStats
	stopOnce sync.Once

	// Per-pass state, written by the coordinator before waking the
	// workers (the channel sends give the happens-before edge).
	cur       *Matrix
	cutoff    int64
	pending   []int32 // per split node: children tasks outstanding
	wsub      []int64 // per node: estimated subtree work
	remaining atomic.Int64
	passDone  atomic.Bool

	// Coordinator-owned traversal buffers (weights + seeding).
	order []tree.NodeID // DFS preorder of the whole tree
	size  []int32       // per node: subtree node count (skip width in order)

	// Per-worker subtree traversal buffers.
	stk [][]tree.NodeID
	ord [][]tree.NodeID

	wake  []chan struct{}
	donec chan struct{}
	done  atomic.Int32 // workers still to park after the current pass
	quit  chan struct{}
}

// newDPPool starts nw parked worker goroutines.
func newDPPool(nw int) *dpPool {
	p := &dpPool{
		nw:      nw,
		workers: make([]*dpWorker, nw),
		scratch: make([]*combineScratch, nw),
		stats:   make([]workerStats, nw),
		stk:     make([][]tree.NodeID, nw),
		ord:     make([][]tree.NodeID, nw),
		wake:    make([]chan struct{}, nw),
		donec:   make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	for i := 0; i < nw; i++ {
		p.workers[i] = new(dpWorker)
		p.scratch[i] = new(combineScratch)
		p.wake[i] = make(chan struct{}, 1)
	}
	for i := 0; i < nw; i++ {
		go p.work(i)
	}
	return p
}

// stop tears the pool's goroutines down. Idempotent: a pool replaced by
// a width change is stopped eagerly AND by the Matrix cleanup.
func (p *dpPool) stop() { p.stopOnce.Do(func() { close(p.quit) }) }

// work is one persistent worker: park, run a pass, signal, park again.
func (p *dpPool) work(self int) {
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake[self]:
		}
		p.runPass(self)
		if p.done.Add(-1) == 0 {
			p.donec <- struct{}{}
		}
	}
}

// pool returns the Matrix's persistent pool for nw workers, (re)building
// it when the width changes. The cleanup is re-registered per pool; stale
// pools are stopped eagerly so their goroutines never outlive a resize.
func (m *Matrix) pool(nw int) *dpPool {
	if m.dp != nil && m.dp.nw == nw {
		return m.dp
	}
	if m.dp != nil {
		m.dp.stop()
	}
	m.dp = newDPPool(nw)
	runtime.AddCleanup(m, func(p *dpPool) { p.stop() }, m.dp)
	return m.dp
}

// computeAllParallel runs the bottom-up pass on nw workers and returns
// their per-worker statistics. The caller has already decided nw > 1 and
// laid the rows out; profileLen is layout's longest profile.
func (m *Matrix) computeAllParallel(nw, profileLen int) []workerStats {
	p := m.pool(nw)

	// Pre-size shared storage: workers index m.rows (sized by layout),
	// pending, and wsub by NodeID and must never grow a shared slice
	// concurrently.
	nodeCap := m.t.NodeCap()
	p.pending = growInt32(p.pending, nodeCap)
	p.wsub = growInt64(p.wsub, nodeCap)
	p.size = growInt32(p.size, nodeCap)
	// One DFS records the preorder and, walking it backwards (children
	// before parents), the per-node subtree weights and sizes the cutoff
	// partition needs. No closures: the buffers persist on the pool.
	order := p.order[:0]
	stack := p.stk[0][:0]
	stack = append(stack, m.t.Root())
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, id)
		for _, c := range m.t.Children(id) {
			stack = append(stack, c)
		}
	}
	p.order, p.stk[0] = order, stack[:0]
	total := int64(len(order))
	if total == 0 {
		return nil
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		children := m.t.Children(id)
		w := m.nodeWeight(id, len(children))
		sz := int32(1)
		for _, c := range children {
			w += p.wsub[c]
			sz += p.size[c]
		}
		p.wsub[id] = w
		p.size[id] = sz
	}
	for _, cs := range p.scratch {
		cs.ensurePass(m.t.Len()+1, profileLen)
	}

	// Auto-tune the sequential cutoff (unless pinned by Options) and
	// partition: walking the preorder, a node at or below the cutoff (or
	// a leaf) seals its whole subtree into one task — skip its descendants
	// via the size table — while a node above it splits, arming the
	// dependency countdown with its child count.
	cutoff := m.opt.TaskCutoff
	if cutoff <= 0 {
		cutoff = p.wsub[m.t.Root()] / int64(nw*tasksPerWorker)
		if cutoff < minTaskWeight {
			cutoff = minTaskWeight
		}
	}
	p.cutoff = cutoff
	tasks := int64(0)
	next := 0
	sealed := 0 // nodes in the largest sealed subtree
	for i := 0; i < len(order); {
		id := order[i]
		if p.wsub[id] <= cutoff || m.t.IsLeaf(id) {
			p.workers[next%nw].push(id)
			next++
			tasks++
			sealed = max(sealed, int(p.size[id]))
			i += int(p.size[id])
		} else {
			p.pending[id] = int32(len(m.t.Children(id)))
			tasks++ // the split node's own combine is a task too
			i++
		}
	}
	// Which worker runs which task is up to the schedule, so size every
	// worker's buffers for the worst one: any sealed subtree to traverse,
	// every task on one deque. Like the combine scratch, they would
	// otherwise grow on whichever warm pass first deals a worker a bigger
	// hand.
	for i := 0; i < nw; i++ {
		p.stk[i] = slices.Grow(p.stk[i][:0], sealed)
		p.ord[i] = slices.Grow(p.ord[i][:0], sealed)
		q := p.workers[i].q
		p.workers[i].q = slices.Grow(q, int(tasks)-len(q))
	}

	for i := range p.stats {
		p.stats[i] = workerStats{}
	}
	p.cur = m
	p.remaining.Store(tasks)
	p.passDone.Store(false)
	p.done.Store(int32(nw))
	for i := 0; i < nw; i++ {
		p.wake[i] <- struct{}{}
	}
	<-p.donec
	p.cur = nil
	return p.stats
}

// nodeWeight estimates one node's combine cost: the dense row length it
// must fill times the child rows folded into it (1 for leaves, whose row
// is a single linear fill).
func (m *Matrix) nodeWeight(id tree.NodeID, nchildren int) int64 {
	w := int64(m.bound(id)) + 2 // +2: the implicit d(m) entry, and ≥1 for empty rows
	if nchildren > 1 {
		w *= int64(nchildren)
	}
	return w
}

// profileBound bounds the length of every temp profile the combine at
// node id builds. A child row is a dense range of len(costs) = bound+1
// pass-up counts plus the spike at d(c), so a sum over the children is a
// choice of which of them spike (2^n ways) plus a dense total over the
// rest, at most 1 + Σ bound(c) values per choice — and never more than
// the d(id)+1 distinct totals there are. Under Lemma 5 the row bound is
// (k+1)·h(m), so this is O(k·h) where the fold length is |D|+1.
func (m *Matrix) profileBound(id tree.NodeID, children []tree.NodeID) int {
	if len(children) == 0 {
		return 0
	}
	dense := 2
	for _, c := range children {
		dense += int(m.bound(c)) + 1
	}
	n := dense << (len(children) - 1)
	if d := m.t.Count(id) + 1; d < n {
		n = d
	}
	return n
}

// runPass is one worker's participation in one pass: drain tasks —
// popping locally, stealing when dry — until every task has run.
func (p *dpPool) runPass(self int) {
	m := p.cur
	nw := p.nw
	cs := p.scratch[self]
	st := &p.stats[self]
	for {
		id, ok := p.workers[self].pop()
		if !ok {
			// Deque empty: scan the other workers for work.
			for off := 1; off < nw && !ok; off++ {
				if id, ok = p.workers[(self+off)%nw].steal(); ok {
					st.steals++
				}
			}
		}
		if !ok {
			if p.passDone.Load() {
				return
			}
			runtime.Gosched()
			continue
		}
		if p.wsub[id] > p.cutoff && !m.t.IsLeaf(id) {
			// A split node whose children all finished: one combine.
			m.computeRow(cs, id)
			st.nodes++
		} else {
			st.nodes += p.runSubtree(m, cs, self, id)
		}
		st.tasks++
		if par := m.t.Parent(id); par != tree.None {
			if atomic.AddInt32(&p.pending[par], -1) == 0 {
				p.workers[self].push(par)
			}
		}
		if p.remaining.Add(-1) == 0 {
			p.passDone.Store(true)
			return
		}
	}
}

// runSubtree computes every row of one sealed subtree sequentially,
// children first, and returns the node count. The traversal is iterative
// over per-worker buffers (a DFS preorder replayed backwards is a valid
// children-first order), so a warm pass allocates nothing.
func (p *dpPool) runSubtree(m *Matrix, cs *combineScratch, self int, root tree.NodeID) int64 {
	stk := p.stk[self][:0]
	ord := p.ord[self][:0]
	stk = append(stk, root)
	for len(stk) > 0 {
		id := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		ord = append(ord, id)
		for _, c := range m.t.Children(id) {
			stk = append(stk, c)
		}
	}
	for i := len(ord) - 1; i >= 0; i-- {
		m.computeRow(cs, ord[i])
	}
	p.stk[self], p.ord[self] = stk[:0], ord
	return int64(len(ord))
}

// growInt32 extends s to at least n entries, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([]int32, n)
	copy(grown, s)
	return grown
}

// growInt64 extends s to at least n entries, reusing capacity.
func growInt64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	grown := make([]int64, n)
	copy(grown, s)
	return grown
}
