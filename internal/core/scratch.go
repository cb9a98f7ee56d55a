package core

import (
	"sync"

	"policyanon/internal/tree"
)

// combineScratch bundles every reusable buffer one combine pass needs, so
// that steady-state computeRow performs no allocations: the inf-filled
// fold accumulator, the touched-index list, the child-row pointer list,
// a double-buffered pair of profile arenas, and the suffix-minimum buffer
// of rowFromProfile. Each DP worker owns one scratch for the duration of
// a bottom-up pass; the sequential and incremental paths use the one the
// Matrix retains. Instances recycle through scratchPool.
type combineScratch struct {
	// fold is the indexed-by-j accumulator of the Section V two-stage
	// combine. Invariant: every entry is inf between combines (foldRows
	// restores the entries it wrote before returning).
	fold []int64
	// touched records which fold indices the current child wrote.
	touched []int32
	// rows is Matrix.fold's child-row pointer list.
	rows []*row
	// jsA/costsA and jsB/costsB are the profile arenas: the running
	// profile lives in one pair while the next child's merge builds into
	// the other, then the pairs swap. The arenas are only safe for
	// profiles that die with the combine; retained profiles (extraction
	// prefixes) are allocated fresh.
	jsA, jsB       []int32
	costsA, costsB []int64
	// sfx and sfxJ are the suffix-minimum buffers of rowFromProfile: the
	// running minimum of temp[j] + j*area and the j witnessing it.
	sfx  []int64
	sfxJ []int32
	// pad is minPlus's reversed copy of the longer child row between
	// lanes-1 inf entries on each side.
	pad []int64
	// runs, split and slopes are foldDense's split of the two child rows
	// into convex runs ([start, end) pairs, the second row's from split
	// on) and their slopes, rebuilt at every two-child combine
	// (splitRuns).
	runs   []int32
	split  int
	slopes []int64
	// affected and order are Matrix.Update's dirty-closure buffers: the
	// ancestor-closed set of rows to recompute and its height-sorted walk
	// list. Update clears affected before returning, so a pooled scratch
	// always hands the next batch an empty map.
	affected map[tree.NodeID]struct{}
	order    []tree.NodeID
	// pass is the extraction pass-up arena: assign appends the points its
	// children hand up into stack-discipline frames (each visit truncates
	// back to its mark before returning), so visiting a node allocates
	// nothing once the arena is warm.
	pass []int32
}

// ensureFold grows the fold accumulator to at least n inf-filled entries.
func (cs *combineScratch) ensureFold(n int) {
	if len(cs.fold) >= n {
		return
	}
	old := len(cs.fold)
	if cap(cs.fold) >= n {
		cs.fold = cs.fold[:n]
	} else {
		grown := make([]int64, n)
		copy(grown, cs.fold)
		cs.fold = grown
	}
	for i := old; i < n; i++ {
		cs.fold[i] = inf
	}
}

// reversed returns b in reverse order between lanes-1 inf entries on each
// side, in the scratch's pad buffer, valid until the next call.
func (cs *combineScratch) reversed(b []int64) []int64 {
	n := len(b) + 2*(lanes-1)
	if cap(cs.pad) < n {
		cs.pad = make([]int64, n)
	}
	p := cs.pad[:n]
	for i := range lanes - 1 {
		p[i], p[n-1-i] = inf, inf
	}
	mid := p[lanes-1 : n-(lanes-1)]
	for i, c := range b {
		mid[len(mid)-1-i] = c
	}
	return p
}

// ensurePass pre-sizes every buffer computeRow can touch before a full
// pass, so the pass allocates them once rather than growing them node by
// node. For scratches owned by DP pool workers it matters more: work
// stealing hands a worker different nodes on every pass, so lazy growth
// inside computeRow would otherwise ratchet capacity (and allocate)
// indefinitely across warm passes. Only fold is indexed by the pass-up
// total j and so needs the fold length |D|+1; the other buffers hold one
// profile (or its suffix minima, one entry more) and are sized by
// profileLen, the longest profile any node of the tree can produce
// (Matrix.profileBound). No child row is longer than its parent's profile
// bound, so pad covers any row minPlus reverses. The lazy growth in the
// combine stays as the safety net.
func (cs *combineScratch) ensurePass(foldLen, profileLen int) {
	cs.ensureFold(foldLen)
	n := profileLen + 1
	if cap(cs.touched) < n {
		cs.touched = make([]int32, 0, n)
	}
	if cap(cs.jsA) < n {
		cs.jsA = make([]int32, 0, n)
	}
	if cap(cs.jsB) < n {
		cs.jsB = make([]int32, 0, n)
	}
	if cap(cs.costsA) < n {
		cs.costsA = make([]int64, 0, n)
	}
	if cap(cs.costsB) < n {
		cs.costsB = make([]int64, 0, n)
	}
	if cap(cs.sfx) < n {
		cs.sfx = make([]int64, n)
	}
	if cap(cs.sfxJ) < n {
		cs.sfxJ = make([]int32, n)
	}
	// Two child rows hold at most as many entries as their parent's
	// profile, and each has at most (len+1)/2 runs.
	if cap(cs.runs) < n+1 {
		cs.runs = make([]int32, 0, n+1)
	}
	if cap(cs.slopes) < n {
		cs.slopes = make([]int64, n)
	}
	if cap(cs.pad) < n+2*(lanes-1) {
		cs.pad = make([]int64, n+2*(lanes-1))
	}
	if cap(cs.rows) < tree.MaxChildren {
		cs.rows = make([]*row, 0, tree.MaxChildren)
	}
}

// scratchPool recycles combine scratch across matrices and DP workers.
var scratchPool = sync.Pool{New: func() any { return new(combineScratch) }}

// getScratch returns a pooled scratch whose fold buffer covers indices
// [0, foldLen).
func getScratch(foldLen int) *combineScratch {
	cs := scratchPool.Get().(*combineScratch)
	cs.ensureFold(foldLen)
	return cs
}

// putScratch returns a scratch to the pool. The caller must not retain it.
func putScratch(cs *combineScratch) { scratchPool.Put(cs) }
