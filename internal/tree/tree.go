// Package tree implements the cloaking trees of the paper: the quad tree of
// Gruteser–Grunwald [16] and the binary (semi-quadrant) tree of Section V.
//
// A square map is split recursively: the quad tree splits each square into
// its four quadrants; the binary tree splits a square vertically into two
// semi-quadrants and each semi-quadrant horizontally into two squares, so
// each quad level becomes two binary levels.
//
// Trees are materialized lazily, as in the paper: a node is split only if
// the locations it contains could possibly be cloaked strictly below it.
// Since cloaking at a node n requires at least k locations inside n
// (k-summation, Definition 9), a node with d(m) < k can never host any
// cloaking in its subtree, so "split iff d(m) >= k (and depth allows)" is a
// lossless materialization rule: the optimum over the lazy tree equals the
// optimum over the fully materialized tree of the same depth.
//
// The tree supports point movement (Move) with canonical re-splitting and
// collapsing, so that a mutated tree is identical to a tree freshly built
// from the new snapshot — structurally AND in leaf point order (ascending
// point index). The ordering half of that guarantee is what makes policy
// extraction deterministic: Extract picks "which points cloak here" by
// leaf order (the choice is immaterial by Lemma 1), so canonical order is
// what lets incremental maintenance reproduce a from-scratch rebuild
// byte-for-byte. Mutations record the set of nodes whose occupancy
// changed; the incremental maintenance of the optimum configuration
// matrix (Section IV) recomputes only those rows.
package tree

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"policyanon/internal/geo"
	"policyanon/internal/obs"
)

// Kind selects the splitting discipline.
type Kind int

const (
	// Binary is the semi-quadrant tree of Section V (two children).
	Binary Kind = iota
	// Quad is the classical quad tree (four children).
	Quad
)

// MaxChildren is the largest branching factor any Kind produces (Quad).
const MaxChildren = 4

// String names the tree kind.
func (k Kind) String() string {
	switch k {
	case Binary:
		return "binary"
	case Quad:
		return "quad"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeID identifies a node within a Tree. The root is always node 0.
type NodeID = int32

// None is the absent-node sentinel.
const None NodeID = -1

// Options configures tree construction.
type Options struct {
	// Kind selects quad or binary splitting. Default Binary.
	Kind Kind
	// MinCountToSplit is the occupancy threshold for materializing
	// children; with the core algorithm this should be the anonymity
	// parameter k. It must be at least 1. Default 1 means a fully eager
	// tree (used by the ablation benchmarks).
	MinCountToSplit int
	// MaxDepth bounds the node height (root has height 0). A value of 0
	// selects the default of 40, deep enough that splitting always stops
	// via MinCountToSplit or via the 1-meter minimum cell side first.
	MaxDepth int
}

const defaultMaxDepth = 40

type node struct {
	rect     geo.Rect
	parent   NodeID
	children [4]NodeID
	nchild   int8
	height   int32
	count    int32
	pts      []int32 // point indices; leaves only
}

// Tree is a lazily materialized cloaking tree over one location snapshot.
type Tree struct {
	kind     Kind
	minSplit int
	maxDepth int
	bounds   geo.Rect
	nodes    []node
	free     []NodeID
	loc      []geo.Point // current location of each point index
	leafOf   []NodeID    // point index -> containing leaf
	dirty    map[NodeID]struct{}
}

// ErrOutOfBounds is returned when a point does not lie inside the map.
var ErrOutOfBounds = errors.New("tree: point outside map bounds")

// BuildContext is Build with tracing: when ctx carries an obs.Tracer the
// materialization is recorded as a "tree.build" span annotated with the
// point count, tree kind, and the number of nodes materialized.
func BuildContext(ctx context.Context, points []geo.Point, bounds geo.Rect, opt Options) (*Tree, error) {
	_, sp := obs.Start(ctx, "tree.build")
	t, err := Build(points, bounds, opt)
	if sp != nil {
		sp.SetInt("points", int64(len(points)))
		sp.SetAttr("kind", opt.Kind.String())
		if err == nil {
			sp.SetInt("nodes", int64(t.NumNodes()))
		}
		sp.End()
	}
	return t, err
}

// Build constructs the tree over the given points. bounds must be a square
// containing every point (half-open).
func Build(points []geo.Point, bounds geo.Rect, opt Options) (*Tree, error) {
	if bounds.Width() != bounds.Height() {
		return nil, fmt.Errorf("tree: map bounds %v are not square", bounds)
	}
	if bounds.Empty() {
		return nil, fmt.Errorf("tree: empty map bounds %v", bounds)
	}
	if opt.MinCountToSplit < 1 {
		opt.MinCountToSplit = 1
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = defaultMaxDepth
	}
	for i, p := range points {
		if !bounds.Contains(p) {
			return nil, fmt.Errorf("%w: point %d at %v, bounds %v", ErrOutOfBounds, i, p, bounds)
		}
	}
	t := &Tree{
		kind:     opt.Kind,
		minSplit: opt.MinCountToSplit,
		maxDepth: opt.MaxDepth,
		bounds:   bounds,
		loc:      append([]geo.Point(nil), points...),
		leafOf:   make([]NodeID, len(points)),
		dirty:    make(map[NodeID]struct{}),
	}
	idx := make([]int32, len(points))
	for i := range idx {
		idx[i] = int32(i)
	}
	root := t.alloc(bounds, None, 0)
	t.bulk(root, idx, make([]int32, len(idx)))
	return t, nil
}

func (t *Tree) alloc(r geo.Rect, parent NodeID, height int32) NodeID {
	n := node{rect: r, parent: parent, height: height}
	for i := range n.children {
		n.children[i] = None
	}
	if len(t.free) > 0 {
		id := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.nodes[id] = n
		return id
	}
	t.nodes = append(t.nodes, n)
	return NodeID(len(t.nodes) - 1)
}

// childRects returns the child rectangles of r under the tree's kind and
// how many there are; zero means r is not splittable at all.
func (t *Tree) childRects(r geo.Rect) (rects [MaxChildren]geo.Rect, n int) {
	if t.kind == Quad {
		if r.Width() < 2 || r.Height() < 2 {
			return rects, 0
		}
		return r.Quadrants(), 4
	}
	// Binary: split the longer dimension; a square splits vertically into
	// semi-quadrants, a semi-quadrant splits horizontally into squares.
	if r.Height() > r.Width() {
		if r.Height() < 2 {
			return rects, 0
		}
		rects[0], rects[1] = r.SouthHalf(), r.NorthHalf()
		return rects, 2
	}
	if r.Width() < 2 {
		return rects, 0
	}
	rects[0], rects[1] = r.WestHalf(), r.EastHalf()
	return rects, 2
}

// bulk builds the subtree at id over the point indices idx, reordering
// them in place so that every node of the subtree owns one contiguous
// range of idx: a split is a stable partition about the split line(s),
// against the scratch tmp (at least as long as idx). Stability keeps each
// range in ascending point order, the canonical leaf order. A leaf takes
// its range as a capacity-limited subslice, so a later insertSorted that
// outgrows the range reallocates instead of writing into the neighbouring
// leaf. Children are allocated and built in child order, depth first,
// which fixes the NodeID numbering.
func (t *Tree) bulk(id NodeID, idx, tmp []int32) {
	t.nodes[id].count = int32(len(idx))
	if !t.shouldSplit(id) {
		t.nodes[id].pts = idx[:len(idx):len(idx)]
		for _, p := range idx {
			t.leafOf[p] = id
		}
		return
	}
	r := t.nodes[id].rect
	rects, n := t.childRects(r)
	c := r.Center()
	// Child ci owns idx[cut[ci]:cut[ci+1]].
	var cut [MaxChildren + 1]int
	switch {
	case t.kind == Quad:
		// South | north, then each half west | east: SW, SE, NW, NE.
		cut[2] = t.partition(idx, tmp, true, c.Y)
		cut[1] = t.partition(idx[:cut[2]], tmp, false, c.X)
		cut[3] = cut[2] + t.partition(idx[cut[2]:], tmp, false, c.X)
	case r.Height() > r.Width():
		cut[1] = t.partition(idx, tmp, true, c.Y)
	default:
		cut[1] = t.partition(idx, tmp, false, c.X)
	}
	cut[n] = len(idx)
	t.nodes[id].nchild = int8(n)
	for ci := 0; ci < n; ci++ {
		cid := t.alloc(rects[ci], id, t.nodes[id].height+1)
		t.nodes[id].children[ci] = cid
		lo, hi := cut[ci], cut[ci+1]
		t.bulk(cid, idx[lo:hi], tmp[lo:hi])
	}
}

// partition stably reorders idx so that the points whose x (or y, when
// byY) coordinate lies below mid come first, and returns how many do.
// tmp holds the upper group while the lower one compacts in place.
//
// Which side a point falls on is a coin toss to the branch predictor, so
// the loop does not branch on it: every index is written to both idx[lo]
// and tmp[hi], and the comparison bit advances one cursor or the other.
// A stray write to idx[lo] lands on a slot already read and is overwritten
// by the next lower point or by the final copy; a stray tmp[hi] is
// overwritten by the next upper point or left past the copied range.
func (t *Tree) partition(idx, tmp []int32, byY bool, mid int32) int {
	lo, hi := 0, 0
	for _, p := range idx {
		v := t.loc[p].X
		if byY {
			v = t.loc[p].Y
		}
		// below is 1 when v < mid: the sign bit of v-mid, widened so the
		// difference cannot overflow.
		below := int(uint64(int64(v)-int64(mid)) >> 63)
		idx[lo] = p
		tmp[hi] = p
		lo += below
		hi += 1 - below
	}
	copy(idx[lo:], tmp[:hi])
	return lo
}

// shouldSplit implements the canonical materialization rule.
func (t *Tree) shouldSplit(id NodeID) bool {
	n := &t.nodes[id]
	if int(n.count) < t.minSplit || int(n.height) >= t.maxDepth {
		return false
	}
	_, nc := t.childRects(n.rect)
	return nc > 0
}

// Kind returns the splitting discipline of the tree.
func (t *Tree) Kind() Kind { return t.kind }

// Bounds returns the map rectangle covered by the root.
func (t *Tree) Bounds() geo.Rect { return t.bounds }

// Root returns the root node id (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of points in the tree.
func (t *Tree) Len() int { return len(t.loc) }

// NumNodes returns the number of live nodes (|B| resp. |T| in the paper).
func (t *Tree) NumNodes() int { return len(t.nodes) - len(t.free) }

// NodeCap returns an exclusive upper bound on live NodeIDs: every live id
// is in [0, NodeCap). Freed slots count toward the bound, so dense arrays
// indexed by NodeID must be sized with NodeCap, not NumNodes.
func (t *Tree) NodeCap() int { return len(t.nodes) }

// Rect returns the (semi-)quadrant of node id.
func (t *Tree) Rect(id NodeID) geo.Rect { return t.nodes[id].rect }

// Area returns the area of node id's region.
func (t *Tree) Area(id NodeID) int64 { return t.nodes[id].rect.Area() }

// Count returns d(m): the number of locations inside node id.
func (t *Tree) Count(id NodeID) int { return int(t.nodes[id].count) }

// Height returns the height of node id, with the root at 0 as in Lemma 5.
func (t *Tree) Height(id NodeID) int { return int(t.nodes[id].height) }

// Parent returns the parent of id, or None for the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.nodes[id].parent }

// IsLeaf reports whether id has no materialized children.
func (t *Tree) IsLeaf(id NodeID) bool { return t.nodes[id].nchild == 0 }

// Children returns the materialized children of id (empty for leaves).
func (t *Tree) Children(id NodeID) []NodeID {
	n := &t.nodes[id]
	return n.children[:n.nchild]
}

// LeafPoints returns the point indices stored at a leaf. Callers must not
// mutate the returned slice. It panics if id is not a leaf.
func (t *Tree) LeafPoints(id NodeID) []int32 {
	if !t.IsLeaf(id) {
		panic(fmt.Sprintf("tree: LeafPoints on internal node %d", id))
	}
	return t.nodes[id].pts
}

// Point returns the current location of point index i.
func (t *Tree) Point(i int32) geo.Point { return t.loc[i] }

// LeafOf returns the leaf currently containing point index i.
func (t *Tree) LeafOf(i int32) NodeID { return t.leafOf[i] }

// Locate descends from the root to the leaf whose region contains p.
func (t *Tree) Locate(p geo.Point) (NodeID, error) {
	if !t.bounds.Contains(p) {
		return None, fmt.Errorf("%w: %v", ErrOutOfBounds, p)
	}
	id := t.Root()
	for !t.IsLeaf(id) {
		next := None
		for _, c := range t.Children(id) {
			if t.nodes[c].rect.Contains(p) {
				next = c
				break
			}
		}
		if next == None {
			panic(fmt.Sprintf("tree: %v not in any child of %v", p, t.nodes[id].rect))
		}
		id = next
	}
	return id, nil
}

// PostOrder visits all live nodes children-before-parents. This is the
// traversal order of Algorithm 1's bottom-up pass.
func (t *Tree) PostOrder(visit func(NodeID)) {
	var rec func(NodeID)
	rec = func(id NodeID) {
		for _, c := range t.Children(id) {
			rec(c)
		}
		visit(id)
	}
	rec(t.Root())
}

// Move relocates point index i to a new position, restructuring the tree so
// that it stays canonical (identical to a fresh Build over the updated
// snapshot). Nodes whose occupancy or structure changed are recorded and
// can be collected with TakeDirty.
func (t *Tree) Move(i int32, to geo.Point) error {
	if !t.bounds.Contains(to) {
		return fmt.Errorf("%w: %v", ErrOutOfBounds, to)
	}
	from := t.loc[i]
	if from == to {
		return nil
	}
	leaf := t.leafOf[i]
	t.loc[i] = to
	if t.nodes[leaf].rect.Contains(to) {
		// Same leaf: no occupancy change anywhere; the configuration
		// matrix is unaffected (it depends only on counts, Lemma 1).
		return nil
	}
	// Remove from the old leaf, then walk up decrementing counts of the
	// proper ancestors that lost the point, stopping at the lowest
	// ancestor that still contains the new location (whose count is
	// unchanged: the point stays inside it).
	t.removeFromLeaf(leaf, i)
	anc := t.nodes[leaf].parent
	for !t.nodes[anc].rect.Contains(to) {
		t.nodes[anc].count--
		t.markDirty(anc)
		anc = t.nodes[anc].parent
	}
	// Descend from anc incrementing counts strictly below it, and insert
	// the point at the destination leaf.
	id := anc
	for !t.IsLeaf(id) {
		next := None
		for _, c := range t.Children(id) {
			if t.nodes[c].rect.Contains(to) {
				next = c
				break
			}
		}
		t.nodes[next].count++
		t.markDirty(next)
		id = next
	}
	t.insertSorted(id, i)
	t.leafOf[i] = id
	// Restore canonical structure on both paths.
	t.resplit(t.leafOf[i])
	t.collapseUp(leaf)
	return nil
}

// removeFromLeaf deletes point i from leaf's point list (preserving the
// canonical ascending order) and decrements its count.
func (t *Tree) removeFromLeaf(leaf NodeID, i int32) {
	n := &t.nodes[leaf]
	j := sort.Search(len(n.pts), func(j int) bool { return n.pts[j] >= i })
	if j == len(n.pts) || n.pts[j] != i {
		panic(fmt.Sprintf("tree: point %d not found in leaf %d", i, leaf))
	}
	n.pts = append(n.pts[:j], n.pts[j+1:]...)
	n.count--
	t.markDirty(leaf)
}

// insertSorted adds point i to leaf id keeping pts in ascending order.
func (t *Tree) insertSorted(id NodeID, i int32) {
	n := &t.nodes[id]
	j := sort.Search(len(n.pts), func(j int) bool { return n.pts[j] >= i })
	n.pts = append(n.pts, 0)
	copy(n.pts[j+1:], n.pts[j:])
	n.pts[j] = i
}

// resplit splits a leaf (recursively) if it now satisfies the
// materialization rule.
func (t *Tree) resplit(id NodeID) {
	if !t.IsLeaf(id) || !t.shouldSplit(id) {
		return
	}
	pts := t.nodes[id].pts
	t.nodes[id].pts = nil
	t.bulk(id, pts, make([]int32, len(pts)))
	t.markSubtreeDirty(id)
}

// collapseUp walks from id towards the root collapsing internal nodes that
// no longer satisfy the materialization rule.
func (t *Tree) collapseUp(id NodeID) {
	for id != None {
		if !t.IsLeaf(id) && !t.shouldSplit(id) {
			var pts []int32
			t.gather(id, &pts)
			// Restore the canonical ascending order: children are sorted
			// internally but not relative to each other. Collapsed nodes
			// hold fewer than minSplit points, so this stays cheap.
			sort.Slice(pts, func(a, b int) bool { return pts[a] < pts[b] })
			t.freeChildren(id)
			n := &t.nodes[id]
			n.nchild = 0
			n.pts = pts
			for _, p := range pts {
				t.leafOf[p] = id
			}
			t.markDirty(id)
		}
		id = t.nodes[id].parent
	}
}

func (t *Tree) gather(id NodeID, out *[]int32) {
	if t.IsLeaf(id) {
		*out = append(*out, t.nodes[id].pts...)
		return
	}
	for _, c := range t.Children(id) {
		t.gather(c, out)
	}
}

func (t *Tree) freeChildren(id NodeID) {
	for _, c := range t.Children(id) {
		t.freeChildren(c)
		t.nodes[c] = node{parent: None}
		t.free = append(t.free, c)
		delete(t.dirty, c)
	}
}

func (t *Tree) markDirty(id NodeID) { t.dirty[id] = struct{}{} }

func (t *Tree) markSubtreeDirty(id NodeID) {
	t.markDirty(id)
	for _, c := range t.Children(id) {
		t.markSubtreeDirty(c)
	}
}

// TakeDirty returns the set of live nodes affected by Moves since the last
// call and resets the set. Callers recomputing a bottom-up dynamic program
// must also refresh the ancestors of the returned nodes.
func (t *Tree) TakeDirty() []NodeID {
	out := make([]NodeID, 0, len(t.dirty))
	for id := range t.dirty {
		out = append(out, id)
	}
	t.dirty = make(map[NodeID]struct{})
	return out
}

// Stats summarizes tree shape for the Figure 3 experiment.
type Stats struct {
	Nodes        int
	Leaves       int
	MaxHeight    int
	MaxLeafCount int
	TotalPoints  int
}

// Stats computes shape statistics over the live nodes.
func (t *Tree) Stats() Stats {
	var s Stats
	t.PostOrder(func(id NodeID) {
		s.Nodes++
		if h := t.Height(id); h > s.MaxHeight {
			s.MaxHeight = h
		}
		if t.IsLeaf(id) {
			s.Leaves++
			if c := t.Count(id); c > s.MaxLeafCount {
				s.MaxLeafCount = c
			}
		}
	})
	s.TotalPoints = t.Len()
	return s
}

// Validate checks the structural invariants of the tree; it is used by
// tests and returns a descriptive error on the first violation.
func (t *Tree) Validate() error {
	seen := make(map[int32]NodeID)
	var err error
	var rec func(id NodeID) int32
	rec = func(id NodeID) int32 {
		n := &t.nodes[id]
		if t.IsLeaf(id) {
			if int32(len(n.pts)) != n.count {
				err = fmt.Errorf("leaf %d count %d != len(pts) %d", id, n.count, len(n.pts))
			}
			if !sort.SliceIsSorted(n.pts, func(a, b int) bool { return n.pts[a] < n.pts[b] }) {
				err = fmt.Errorf("leaf %d points not in canonical ascending order", id)
			}
			for _, p := range n.pts {
				if !n.rect.Contains(t.loc[p]) {
					err = fmt.Errorf("leaf %d does not contain its point %d at %v", id, p, t.loc[p])
				}
				if t.leafOf[p] != id {
					err = fmt.Errorf("leafOf[%d] = %d, want %d", p, t.leafOf[p], id)
				}
				if prev, dup := seen[p]; dup {
					err = fmt.Errorf("point %d in leaves %d and %d", p, prev, id)
				}
				seen[p] = id
			}
			if t.shouldSplit(id) {
				err = fmt.Errorf("leaf %d should be split (count %d)", id, n.count)
			}
			return n.count
		}
		if int(n.count) < t.minSplit {
			err = fmt.Errorf("internal node %d below split threshold (count %d)", id, n.count)
		}
		var sum int32
		var childArea int64
		for _, c := range t.Children(id) {
			if t.nodes[c].parent != id {
				err = fmt.Errorf("child %d of %d has parent %d", c, id, t.nodes[c].parent)
			}
			if t.nodes[c].height != n.height+1 {
				err = fmt.Errorf("child %d height %d, parent height %d", c, t.nodes[c].height, n.height)
			}
			if !n.rect.ContainsRect(t.nodes[c].rect) {
				err = fmt.Errorf("child %d rect %v escapes parent %v", c, t.nodes[c].rect, n.rect)
			}
			childArea += t.nodes[c].rect.Area()
			sum += rec(c)
		}
		if childArea != n.rect.Area() {
			err = fmt.Errorf("node %d children areas %d != %d", id, childArea, n.rect.Area())
		}
		if sum != n.count {
			err = fmt.Errorf("node %d count %d != children sum %d", id, n.count, sum)
		}
		return n.count
	}
	total := rec(t.Root())
	if err != nil {
		return err
	}
	if int(total) != len(t.loc) {
		return fmt.Errorf("root count %d != %d points", total, len(t.loc))
	}
	return nil
}
