package core

import (
	"fmt"
	"sort"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/tree"
)

// This file implements the run-time orientation variant the paper sketches
// in Section V: "one could choose dynamically between horizontal or
// vertical semi-quadrants at run-time, while for simplicity we statically
// partition quadrants into vertical semi-quadrants only."
//
// The adaptive dynamic program works over the quad tree but lets every
// square choose, independently, whether its semi-quadrant layer splits
// vertically (west/east) or horizontally (south/north). Because the four
// grandchild quadrants are the same under both orientations, the search
// space is a DAG over the quad nodes and the per-square choice is just an
// element-wise minimum of two candidate rows. The result is never worse
// than the static vertical binary tree, at roughly twice the combine work.

// AdaptiveMatrix is the optimum configuration matrix of the adaptive-
// orientation policy family.
type AdaptiveMatrix struct {
	t    *tree.Tree // quad tree
	k    int
	opt  Options
	rows []row // square rows after the orientation minimum
	cs   *combineScratch
}

// NewAdaptiveMatrix runs the adaptive DP over a quad tree (tree.Quad with
// MinCountToSplit == k).
func NewAdaptiveMatrix(t *tree.Tree, k int, opt Options) (*AdaptiveMatrix, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if t.Kind() != tree.Quad {
		return nil, fmt.Errorf("core: adaptive matrix requires a quad tree, got %v", t.Kind())
	}
	m := &AdaptiveMatrix{t: t, k: k, opt: opt, cs: getScratch(t.Len() + 1)}
	t.PostOrder(func(id tree.NodeID) { m.computeRow(id) })
	return m, nil
}

// bound mirrors Matrix.bound using binary-equivalent heights: a square at
// quad height q sits at binary height 2q, its semi-quadrants at 2q+1.
func (m *AdaptiveMatrix) boundFor(d int, binHeight int) int32 {
	if d < m.k {
		return -1
	}
	b := d - m.k
	if !m.opt.NoPrune {
		if lim := (m.k + 1) * binHeight; lim < b {
			b = lim
		}
	}
	return int32(b)
}

// combineRows folds two child rows and derives a node row with the given
// geometry.
func (m *AdaptiveMatrix) combineRows(r0, r1 *row, d int, bound int32, area int64) row {
	r := row{d: int32(d), bound: bound}
	if bound < 0 {
		return r
	}
	r.costs = make([]int64, bound+1)
	combinePair(m.cs, &r, r0, r1, area, m.k)
	return r
}

// semiPair describes one orientation's semi-quadrant layer.
type semiPair struct {
	rects [2]geo.Rect
	// kids[i] lists the two quadrant-child positions under rects[i],
	// indexed into the SW,SE,NW,NE child order of geo.Rect.Quadrants.
	kids [2][2]int
}

// orientations returns the vertical and horizontal semi layers of a square.
func orientations(rect geo.Rect) [2]semiPair {
	return [2]semiPair{
		{ // vertical: west = SW+NW, east = SE+NE
			rects: [2]geo.Rect{rect.WestHalf(), rect.EastHalf()},
			kids:  [2][2]int{{0, 2}, {1, 3}},
		},
		{ // horizontal: south = SW+SE, north = NW+NE
			rects: [2]geo.Rect{rect.SouthHalf(), rect.NorthHalf()},
			kids:  [2][2]int{{0, 1}, {2, 3}},
		},
	}
}

// squareRowFor computes the square's row under one orientation, returning
// also the two semi rows (used by extraction).
func (m *AdaptiveMatrix) squareRowFor(id tree.NodeID, o semiPair) (square row, semis [2]row) {
	children := m.t.Children(id)
	qh := m.t.Height(id)
	for s := 0; s < 2; s++ {
		a, b := children[o.kids[s][0]], children[o.kids[s][1]]
		d := m.t.Count(a) + m.t.Count(b)
		semis[s] = m.combineRows(&m.rows[a], &m.rows[b], d, m.boundFor(d, 2*qh+1), o.rects[s].Area())
	}
	d := m.t.Count(id)
	square = m.combineRows(&semis[0], &semis[1], d, m.boundFor(d, 2*qh), m.t.Area(id))
	return square, semis
}

func (m *AdaptiveMatrix) ensureRow(id tree.NodeID) *row {
	for int(id) >= len(m.rows) {
		m.rows = append(m.rows, row{})
	}
	return &m.rows[id]
}

func (m *AdaptiveMatrix) computeRow(id tree.NodeID) {
	r := m.ensureRow(id)
	d := m.t.Count(id)
	r.d = int32(d)
	r.bound = m.boundFor(d, 2*m.t.Height(id))
	if r.bound < 0 {
		r.costs = r.costs[:0]
		return
	}
	area := m.t.Area(id)
	if m.t.IsLeaf(id) {
		r.costs = make([]int64, r.bound+1)
		for u := int32(0); u <= r.bound; u++ {
			r.costs[u] = int64(r.d-u) * area
		}
		return
	}
	os := orientations(m.t.Rect(id))
	v, _ := m.squareRowFor(id, os[0])
	h, _ := m.squareRowFor(id, os[1])
	// Element-wise orientation minimum; both candidates share d and bound.
	r.costs = make([]int64, r.bound+1)
	for u := int32(0); u <= r.bound; u++ {
		r.costs[u] = v.at(u)
		if c := h.at(u); c < r.costs[u] {
			r.costs[u] = c
		}
	}
}

// OptimalCost returns the adaptive-orientation optimum.
func (m *AdaptiveMatrix) OptimalCost() (int64, error) {
	root := m.t.Root()
	if m.t.Count(root) == 0 {
		return 0, nil
	}
	if m.t.Count(root) < m.k {
		return 0, fmt.Errorf("%w: |D|=%d, k=%d", ErrInsufficientUsers, m.t.Count(root), m.k)
	}
	c := m.rows[root].at(0)
	if c >= inf {
		return 0, fmt.Errorf("core: no complete adaptive configuration (internal error)")
	}
	return c, nil
}

// Extract materializes a minimum-cost adaptive policy: per-point cloaks
// drawn from squares and per-square-chosen semi-quadrants.
func (m *AdaptiveMatrix) Extract() ([]geo.Rect, error) {
	if _, err := m.OptimalCost(); err != nil {
		return nil, err
	}
	cloaks := make([]geo.Rect, m.t.Len())
	if m.t.Len() == 0 {
		return cloaks, nil
	}
	leftover, err := m.assign(m.t.Root(), 0, cloaks)
	if err != nil {
		return nil, err
	}
	if len(leftover) != 0 {
		return nil, fmt.Errorf("core: %d locations uncloaked at the adaptive root (internal error)", len(leftover))
	}
	return cloaks, nil
}

func (m *AdaptiveMatrix) assign(id tree.NodeID, u int32, cloaks []geo.Rect) ([]int32, error) {
	r := &m.rows[id]
	want := r.at(u)
	if want >= inf {
		return nil, fmt.Errorf("core: infeasible adaptive target u=%d at node %d (internal error)", u, id)
	}
	rect := m.t.Rect(id)
	if m.t.IsLeaf(id) {
		pts := m.t.LeafPoints(id)
		cloakN := int(r.d - u)
		for _, p := range pts[:cloakN] {
			cloaks[p] = rect
		}
		return pts[cloakN:], nil
	}
	// Re-derive the orientation achieving the optimum at this target.
	children := m.t.Children(id)
	var chosen semiPair
	var square row
	var semis [2]row
	found := false
	for _, o := range orientations(rect) {
		sq, sm := m.squareRowFor(id, o)
		if sq.at(u) == want {
			chosen, square, semis, found = o, sq, sm, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: no orientation reproduces adaptive M[%d][%d] (internal error)", id, u)
	}
	_ = square
	// Square level: split u across the two semis.
	jSq, semiPicks, err := resolveCombine(m.cs, []*row{&semis[0], &semis[1]}, u, want, m.t.Area(id), m.k, r.d)
	if err != nil {
		return nil, err
	}
	var passed []int32
	for s := 0; s < 2; s++ {
		// Semi level: split the semi's target across its two quadrants.
		a, b := children[chosen.kids[s][0]], children[chosen.kids[s][1]]
		semiWant := semis[s].at(semiPicks[s])
		jSemi, kidPicks, err := resolveCombine(m.cs,
			[]*row{&m.rows[a], &m.rows[b]},
			semiPicks[s], semiWant, chosen.rects[s].Area(), m.k, semis[s].d)
		if err != nil {
			return nil, err
		}
		subA, err := m.assign(a, kidPicks[0], cloaks)
		if err != nil {
			return nil, err
		}
		subB, err := m.assign(b, kidPicks[1], cloaks)
		if err != nil {
			return nil, err
		}
		semiPassed := append(subA, subB...)
		if int32(len(semiPassed)) != jSemi {
			return nil, fmt.Errorf("core: semi received %d points, expected %d (internal error)", len(semiPassed), jSemi)
		}
		cloakN := int(jSemi - semiPicks[s])
		for _, p := range semiPassed[:cloakN] {
			cloaks[p] = chosen.rects[s]
		}
		passed = append(passed, semiPassed[cloakN:]...)
	}
	if int32(len(passed)) != jSq {
		return nil, fmt.Errorf("core: square received %d points, expected %d (internal error)", len(passed), jSq)
	}
	cloakN := int(jSq - u)
	for _, p := range passed[:cloakN] {
		cloaks[p] = rect
	}
	return passed[cloakN:], nil
}

// Update incrementally refreshes the adaptive matrix after tree mutations,
// mirroring Matrix.Update: dirty rows and their ancestors are recomputed
// children-first.
func (m *AdaptiveMatrix) Update() int {
	dirty := m.t.TakeDirty()
	if len(dirty) == 0 {
		return 0
	}
	affected := make(map[tree.NodeID]struct{})
	for _, id := range dirty {
		for n := id; n != tree.None; n = m.t.Parent(n) {
			if _, ok := affected[n]; ok {
				break
			}
			affected[n] = struct{}{}
		}
	}
	order := make([]tree.NodeID, 0, len(affected))
	for id := range affected {
		order = append(order, id)
	}
	sort.Slice(order, func(a, b int) bool {
		return m.t.Height(order[a]) > m.t.Height(order[b])
	})
	for _, id := range order {
		m.computeRow(id)
	}
	return len(order)
}

// AdaptivePolicy is the convenience wrapper: build the quad tree, run the
// adaptive-orientation DP, and extract the policy as an assignment.
func AdaptivePolicy(db *location.DB, bounds geo.Rect, k int, opt Options) (*lbs.Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	t, err := tree.Build(db.Points(), bounds, tree.Options{Kind: tree.Quad, MinCountToSplit: k})
	if err != nil {
		return nil, err
	}
	m, err := NewAdaptiveMatrix(t, k, opt)
	if err != nil {
		return nil, err
	}
	cloaks, err := m.Extract()
	if err != nil {
		return nil, err
	}
	return lbs.NewAssignment(db, cloaks)
}

// resolveCombine re-derives, for a node with the given child rows, a child
// pass-up vector and total j achieving value want at target u. Shared by
// the static and adaptive extractions.
func resolveCombine(cs *combineScratch, rows []*row, u int32, want int64, area int64, k int, dTotal int32) (int32, []int32, error) {
	if u == dTotal && want == 0 {
		picks := make([]int32, len(rows))
		for i, rc := range rows {
			picks[i] = rc.d
		}
		return u, picks, nil
	}
	var prefixes []profile
	final := foldRows(cs, rows, &prefixes)
	targetJ, targetCost := int32(-1), inf
	for i, j := range final.js {
		var total int64
		switch {
		case j == u:
			total = final.costs[i]
		case j >= u+int32(k):
			total = final.costs[i] + int64(j-u)*area
		default:
			continue
		}
		if total == want {
			targetJ, targetCost = j, final.costs[i]
			break
		}
	}
	if targetJ < 0 {
		return 0, nil, fmt.Errorf("core: no combine reproduces target u=%d want=%d (internal error)", u, want)
	}
	picks := make([]int32, len(rows))
	j, cost := targetJ, targetCost
	for ci := len(rows) - 1; ci >= 1; ci-- {
		prev := &prefixes[ci-1]
		found := false
		rows[ci].each(func(cu int32, cc int64) {
			if found || cu > j {
				return
			}
			if prev.at(j-cu)+cc == cost {
				picks[ci] = cu
				j -= cu
				cost -= cc
				found = true
			}
		})
		if !found {
			return 0, nil, fmt.Errorf("core: backtrack failed at child %d (internal error)", ci)
		}
	}
	if rows[0].at(j) != cost {
		return 0, nil, fmt.Errorf("core: backtrack residue mismatch (internal error)")
	}
	picks[0] = j
	return targetJ, picks, nil
}
