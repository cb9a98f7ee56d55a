package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/obs"
	"policyanon/internal/tree"
)

// ErrNoDeltaBaseline reports that the matrix has no realized assignment to
// diff against: no Extract succeeded since construction or since the last
// full Recompute. Callers fall back to Extract, which (re-)establishes the
// baseline.
var ErrNoDeltaBaseline = errors.New("core: no delta baseline (run Extract first)")

// Extract materializes one minimum-cost policy from the optimum
// configuration matrix: a per-point cloak, point i receiving the rectangle
// of the tree node that cloaks it. This is the linear-time policy
// exhibition step described after Definition 7 (within each node, which
// particular locations it cloaks is immaterial by Lemma 1 and is chosen
// arbitrarily). The pass also records the realized configuration — the
// target chosen and the points passed up per node — as the baseline
// ExtractDelta diffs against.
func (m *Matrix) Extract() ([]geo.Rect, error) {
	table, ids, err := m.extractIDs()
	if err != nil {
		return nil, err
	}
	cloaks := make([]geo.Rect, len(ids))
	for p, id := range ids {
		cloaks[p] = table[id]
	}
	return cloaks, nil
}

// Policy is Extract delivered as the interned policy over db, the snapshot
// whose points the tree indexes: every node that cloaks a point becomes
// one table entry and each point gets that entry's id, so the exhibition
// hands over 4 B per point, not a 16 B rectangle to copy and hash.
func (m *Matrix) Policy(db *location.DB) (*lbs.Assignment, error) {
	table, ids, err := m.extractIDs()
	if err != nil {
		return nil, err
	}
	return lbs.NewTableAssignment(db, table, ids)
}

// extractIDs runs a full exhibition pass in a "bulkdp.extract" span: each
// node that cloaks a point gets one table entry, each point its entry's
// id. The pair is also the new delta baseline, which reads it only.
func (m *Matrix) extractIDs() (table []geo.Rect, ids []int32, err error) {
	_, sp := obs.Start(m.octx(), "bulkdp.extract")
	if sp != nil {
		sp.SetInt("users", int64(m.t.Len()))
		defer sp.End()
	}
	st := assignPass{ids: make([]int32, m.t.Len())}
	if err := m.extract(&st); err != nil {
		return nil, nil, err
	}
	// A policy built on the table owns its spare capacity.
	m.baseTable, m.baseIDs = slices.Clip(st.table), st.ids
	return st.table, st.ids, nil
}

// ExtractDelta re-runs the policy exhibition only over subtrees that can
// realize a different configuration than the last extraction: a node is
// descended when any row in its subtree was recomputed since (the stale
// set, ancestor-closed because Update recomputes every ancestor of a dirty
// node) or when its parent chose a different pass-up target for it;
// everything else reuses the memoized pass-up list. It returns the cloak
// changes against the previously extracted assignment — the maintained
// assignment stays byte-identical to a from-scratch Extract (the parity
// oracle) — plus the number of nodes re-assigned. The work is
// O(re-assigned subtrees), not O(|D|).
func (m *Matrix) ExtractDelta() (changes []lbs.CloakChange, visited int, err error) {
	if !m.haveBase {
		return nil, 0, ErrNoDeltaBaseline
	}
	if m.baseIDs != nil {
		if n := len(m.baseIDs); cap(m.cloaks) < n {
			m.cloaks = make([]geo.Rect, n)
		} else {
			m.cloaks = m.cloaks[:n]
		}
		for p, id := range m.baseIDs {
			m.cloaks[p] = m.baseTable[id]
		}
		m.baseTable, m.baseIDs = nil, nil
	}
	if len(m.cloaks) != m.t.Len() {
		return nil, 0, ErrNoDeltaBaseline
	}
	_, sp := obs.Start(m.octx(), "bulkdp.extract_delta")
	st := assignPass{delta: true}
	if err := m.extract(&st); err != nil {
		if sp != nil {
			sp.End()
		}
		return nil, 0, err
	}
	if sp != nil {
		sp.SetInt("visited", int64(st.visited))
		sp.SetInt("changes", int64(len(st.changes)))
		sp.End()
	}
	return st.changes, st.visited, nil
}

// extract runs one exhibition pass (full or delta) into the matrix's
// baseline state.
func (m *Matrix) extract(st *assignPass) error {
	if _, err := m.OptimalCost(); err != nil {
		return err
	}
	m.ensureAssignState()
	if !st.delta {
		m.baseTable, m.baseIDs = nil, nil
	}
	m.cs.pass = m.cs.pass[:0]
	// A failed pass leaves the baseline partially overwritten; drop it
	// until a pass completes.
	m.haveBase = false
	if m.t.Len() > 0 {
		leftover, err := m.assign(m.t.Root(), 0, st)
		if err != nil {
			return err
		}
		if len(leftover) != 0 {
			return fmt.Errorf("core: %d locations left uncloaked at the root (internal error)", len(leftover))
		}
	}
	m.clearStale()
	m.haveBase = true
	return nil
}

// assignPass carries one exhibition pass's mode and accumulators.
type assignPass struct {
	// delta reuses per-node memos where the configuration cannot have
	// changed and records cloak rewrites into changes.
	delta   bool
	changes []lbs.CloakChange
	visited int
	// ids receives, on a full pass, each point's cloak as an id into
	// table, which gains one entry per node that cloaks a point.
	ids   []int32
	table []geo.Rect
}

// assign recursively realizes the configuration chosen by the matrix for
// the subtree at id with pass-up target u, writing cloaks into the
// baseline and returning the point indices passed up (the returned slice
// is the node's memo: callers must not mutate or retain it across passes).
func (m *Matrix) assign(id tree.NodeID, u int32, st *assignPass) ([]int32, error) {
	if st.delta && !m.stale[id] && m.chosen[id] == u {
		// No row in this subtree changed (ancestor-closure of the stale
		// set) and the parent chose the same target, so the realized
		// configuration — hence every cloak inside — is unchanged.
		return m.passUp[id], nil
	}
	st.visited++
	r := &m.rows[id]
	want := r.at(u)
	if want >= inf {
		return nil, fmt.Errorf("core: infeasible target u=%d at node %d (internal error)", u, id)
	}
	rect := m.t.Rect(id)
	if m.t.IsLeaf(id) {
		pts := m.t.LeafPoints(id)
		cloakN := int(r.d - u)
		m.cloak(pts[:cloakN], rect, st)
		m.chosen[id] = u
		m.passUp[id] = append(m.passUp[id][:0], pts[cloakN:]...)
		return m.passUp[id], nil
	}
	children := m.t.Children(id)
	var pickBuf [4]int32
	j, pick, err := m.chooseCombine(id, u, want, pickBuf[:0])
	if err != nil {
		return nil, err
	}
	// The children's pass-ups accumulate in a stack-discipline arena frame
	// (each recursive visit pops its own frame before returning, so this
	// frame stays contiguous across the recursion).
	mark := len(m.cs.pass)
	for ci, ch := range children {
		sub, err := m.assign(ch, pick[ci], st)
		if err != nil {
			return nil, err
		}
		m.cs.pass = append(m.cs.pass, sub...)
	}
	passed := m.cs.pass[mark:]
	if int32(len(passed)) != j {
		return nil, fmt.Errorf("core: node %d received %d points, expected j=%d (internal error)", id, len(passed), j)
	}
	cloakN := int(j - u)
	m.cloak(passed[:cloakN], rect, st)
	m.chosen[id] = u
	m.passUp[id] = append(m.passUp[id][:0], passed[cloakN:]...)
	m.cs.pass = m.cs.pass[:mark]
	return m.passUp[id], nil
}

// cloak issues rect to the points ps: a full pass as one new table entry
// whose id it writes per point, a delta pass into the baseline, recording
// each rewrite that actually changes a point's cloak.
func (m *Matrix) cloak(ps []int32, rect geo.Rect, st *assignPass) {
	if !st.delta {
		if len(ps) > 0 {
			id := int32(len(st.table))
			st.table = append(st.table, rect)
			for _, p := range ps {
				st.ids[p] = id
			}
		}
		return
	}
	for _, p := range ps {
		if old := m.cloaks[p]; old != rect {
			st.changes = append(st.changes, lbs.CloakChange{Index: int(p), Old: old, New: rect})
			m.cloaks[p] = rect
		}
	}
}

// chooseCombine derives, for internal node id and target pass-up u, a
// children pass-up vector and total j achieving the stored optimum
// M[id][u]. Binary nodes take the fast path: the combine recorded its
// argmin total in the row's jpick, so only the split of j across the two
// children remains — a scan linear in the first child's row. Nodes
// without a recorded pick (quad combines, NaiveCombine rows) re-derive
// the total with the from-scratch resolver.
func (m *Matrix) chooseCombine(id tree.NodeID, u int32, want int64, buf []int32) (int32, []int32, error) {
	children := m.t.Children(id)
	r := &m.rows[id]
	if len(children) == 2 && u >= 0 && u <= r.bound && int(u) < len(r.jpick) {
		j := r.jpick[u]
		base := want
		if j != u {
			// The node cloaked j-u of the passed-up points; the remainder
			// is what the children's rows had to sum to.
			base -= int64(j-u) * m.t.Area(id)
		}
		if u0, u1, ok := splitPair(&m.rows[children[0]], &m.rows[children[1]], j, base); ok {
			return j, append(buf, u0, u1), nil
		}
		// No split reproduces the recorded pick — fall through to the
		// from-scratch resolver rather than fail the extraction.
	}
	rows := m.cs.rows[:0]
	for _, ch := range children {
		rows = append(rows, &m.rows[ch])
	}
	m.cs.rows = rows
	j, picks, err := resolveCombine(m.cs, rows, u, want, m.t.Area(id), m.k, r.d)
	if err != nil {
		return 0, nil, fmt.Errorf("core: node %d: %w", id, err)
	}
	return j, append(buf, picks...), nil
}

// splitPair finds child pass-up counts (u0, u1) with u0 + u1 = j whose
// row costs sum to base — the decomposition the fold realized when it
// scored total j at cost base. The scan order (spike first, then the
// dense range in increasing u0) is fixed so repeated extractions of an
// unchanged subtree realize the identical configuration.
func splitPair(r0, r1 *row, j int32, base int64) (int32, int32, bool) {
	if u1 := j - r0.d; u1 == r1.d || (u1 >= 0 && u1 <= r1.bound) {
		if r1.at(u1) == base {
			return r0.d, u1, true
		}
	}
	hi := j
	if hi > r0.bound {
		hi = r0.bound
	}
	for u0 := int32(0); u0 <= hi; u0++ {
		c0 := r0.costs[u0]
		if c0 > base {
			continue
		}
		u1 := j - u0
		if u1 == r1.d {
			if c0 == base {
				return u0, u1, true
			}
			continue
		}
		if u1 >= 0 && u1 <= r1.bound && c0+r1.costs[u1] == base {
			return u0, u1, true
		}
	}
	return 0, 0, false
}

// Anonymizer bundles a cloaking tree and its optimum configuration matrix
// for one snapshot, exposing the operations the CSP needs: bulk
// anonymization, incremental maintenance under movement, and policy
// extraction.
type Anonymizer struct {
	db     *location.DB
	matrix *Matrix
}

// AnonymizerOptions configures NewAnonymizer.
type AnonymizerOptions struct {
	// K is the anonymity parameter (required, >= 1).
	K int
	// Kind selects the cloaking tree; the default is the binary
	// semi-quadrant tree of Section V.
	Kind tree.Kind
	// MaxDepth bounds tree height (0 = library default).
	MaxDepth int
	// DP carries the dynamic-program ablation switches.
	DP Options
}

// NewAnonymizer builds the cloaking tree over db and runs the bulk dynamic
// program. bounds must be the square map region.
func NewAnonymizer(db *location.DB, bounds geo.Rect, opt AnonymizerOptions) (*Anonymizer, error) {
	return NewAnonymizerContext(context.Background(), db, bounds, opt)
}

// NewAnonymizerContext is NewAnonymizer with tracing: when ctx carries an
// obs.Tracer the bulk anonymization is recorded as a "bulkdp.build" span
// enclosing "tree.build" (materialization) and "bulkdp.combine" (the
// Algorithm 1 main loop); later Extract and Update calls report
// "bulkdp.extract" and "bulkdp.update" under the same trace.
func NewAnonymizerContext(ctx context.Context, db *location.DB, bounds geo.Rect, opt AnonymizerOptions) (*Anonymizer, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", opt.K)
	}
	ctx, sp := obs.Start(ctx, "bulkdp.build")
	if sp != nil {
		sp.SetInt("users", int64(db.Len()))
		sp.SetInt("k", int64(opt.K))
		defer sp.End()
	}
	t, err := tree.BuildContext(ctx, db.Points(), bounds, tree.Options{
		Kind:            opt.Kind,
		MinCountToSplit: opt.K,
		MaxDepth:        opt.MaxDepth,
	})
	if err != nil {
		return nil, err
	}
	mx, err := NewMatrixContext(ctx, t, opt.K, opt.DP)
	if err != nil {
		return nil, err
	}
	return &Anonymizer{db: db, matrix: mx}, nil
}

// Matrix exposes the optimum configuration matrix.
func (a *Anonymizer) Matrix() *Matrix { return a.matrix }

// Tree exposes the cloaking tree.
func (a *Anonymizer) Tree() *tree.Tree { return a.matrix.Tree() }

// OptimalCost returns the optimum policy cost for the current snapshot.
func (a *Anonymizer) OptimalCost() (int64, error) { return a.matrix.OptimalCost() }

// Policy extracts an optimal policy-aware sender k-anonymous cloak
// assignment for the current snapshot.
func (a *Anonymizer) Policy() (*lbs.Assignment, error) {
	return a.matrix.Policy(a.db)
}

// Move relocates one user (by record index) and incrementally maintains
// the matrix. Call Refresh after a batch of moves instead to amortize the
// recomputation.
func (a *Anonymizer) Move(i int, to geo.Point) error {
	a.db.MoveAt(i, to)
	return a.matrix.Tree().Move(int32(i), to)
}

// Refresh recomputes the matrix rows invalidated by Moves since the last
// Refresh; it returns the number of rows recomputed.
func (a *Anonymizer) Refresh() int { return a.matrix.Update() }
