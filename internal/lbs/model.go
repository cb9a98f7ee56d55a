// Package lbs models the privacy-conscious location-based-service setting
// of Section II: service requests created by the CSP (Definition 1),
// anonymized requests with cloaks (Definition 2), masking (Definition 3),
// and cloaking policies (Definition 4) represented as per-snapshot cloak
// assignments. It also provides the LBS provider substrate: a point-of-
// interest store with cloaked nearest-neighbour evaluation, and the
// anonymizing CSP front end with the result cache of Section VII.
package lbs

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// Param is one name-value pair of a request's parameter vector V.
type Param struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// ServiceRequest is the tuple <u,(x,y),V> of Definition 1, assembled by the
// CSP from the user's query and the MPC-provided location.
type ServiceRequest struct {
	UserID string
	Loc    geo.Point
	Params []Param
}

// Valid reports whether the request is valid w.r.t. the snapshot: the user
// exists and is at the stated location (Definition 1).
func (sr ServiceRequest) Valid(db *location.DB) bool {
	p, err := db.Lookup(sr.UserID)
	return err == nil && p == sr.Loc
}

// AnonymizedRequest is the tuple <rid, rho, V> of Definition 2 with a
// rectangular cloak.
type AnonymizedRequest struct {
	RID    uint64
	Cloak  geo.Rect
	Params []Param
}

// Masks reports whether ar masks sr (Definition 3): the service request's
// location lies in the (closed) cloak and the parameter vectors agree.
func (ar AnonymizedRequest) Masks(sr ServiceRequest) bool {
	return ar.Cloak.ContainsClosed(sr.Loc) && ParamsEqual(ar.Params, sr.Params)
}

// ParamsEqual compares two parameter vectors element-wise.
func ParamsEqual(a, b []Param) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Assignment is a cloaking policy for one location snapshot, in the
// location-to-cloak form the paper adopts from Section IV on: every user in
// the snapshot is mapped to a cloak. Together with the convention that the
// policy is deterministic and depends only on the snapshot, an Assignment
// fully determines the Definition-4 policy on this snapshot.
//
// The cloaks are interned: a table of cloak rectangles and, per record,
// one int32 id into it, so CloakAt(i) is table[id[i]]. A policy-aware
// attacker's candidate set is a cloaking group (Definitions 5–6), and
// Bulk_dp issues one tree-node region per group (Lemma 1), so the table
// holds about |D|/k entries and grouping the records is a counting sort
// over their ids. The table may hold one rectangle under two ids (a
// caller's table, or a delta chain's appends); every reader that groups
// by cloak merges them (GroupsOn), so an id is never taken for a cloak.
//
// Assignments are immutable once built and versioned: a policy change
// produces a new value, either from scratch (NewAssignment,
// NewTableAssignment: flat id storage and a table of their own) or derived
// from a predecessor (ApplyDelta: copy-on-write pages of 128 ids sharing
// every unchanged page with the parent, and a table the chain appends to).
// Version() increases monotonically across both paths, so consumers can
// memoize per-assignment results and, via Delta(), invalidate only what a
// delta publish actually touched.
type Assignment struct {
	db *location.DB
	// table maps a cloak id to its rectangle. Entries no record holds any
	// more stay until the chain compacts (see ApplyDelta).
	table []geo.Rect
	// ids is the flat storage of from-scratch assignments; pages, nil for
	// them, is the copy-on-write storage of delta-derived ones.
	ids   []int32 // indexed like db records
	pages [][]int32
	n     int
	// cost is the summed cloak area (Cost), kept by the constructors and
	// ApplyDelta so that reading it is O(1).
	cost int64

	version uint64
	delta   *Delta

	// claimed is set by the first ApplyDelta on this assignment, which
	// takes over tail and the table's spare capacity; any later one works
	// on copies, so two children of one parent never write the same slot.
	claimed atomic.Bool
	tail    *chainTail // nil until a delta derivation has built it

	// memo is the assignment's one derived-value slot (see Memo).
	memoMu sync.Mutex
	memo   atomic.Pointer[memo]
}

// chainTail is what a delta chain carries from link to link so ApplyDelta
// stays O(changes): the table's rectangles indexed (a re-issued cloak
// reuses its id) and how many records hold each id (a table mostly of
// dead ids is compacted).
type chainTail struct {
	index map[geo.Rect]int32 // rectangle -> id
	refs  []int32            // id -> records holding it
	live  int                // ids with refs > 0
}

// memo is a value derived from an assignment, tagged with the snapshot
// version it was derived at.
type memo struct {
	dbVersion uint64
	val       any
}

// Id pages hold 128 entries: small enough that rewriting one cloak copies
// 512 B (cloak-delta batches touch pages roughly one per changed user, so
// page size sets the COW traffic per publish almost linearly), large
// enough that the page table of the paper's 1.75M Master set stays around
// fourteen thousand entries.
const (
	cloakPageShift = 7
	cloakPageSize  = 1 << cloakPageShift
	cloakPageMask  = cloakPageSize - 1
)

// assignVersion mints globally monotonic assignment versions.
var assignVersion atomic.Uint64

// Move is one record relocation between a parent assignment's snapshot and
// its delta-derived successor.
type Move struct {
	Index    int
	From, To geo.Point
}

// CloakChange is one record's cloak rewrite between a parent assignment
// and its delta-derived successor.
type CloakChange struct {
	Index    int
	Old, New geo.Rect
}

// Delta records how a delta-derived assignment differs from its parent.
// Consumers (the auditor's per-cloak memo, delta-scoped verification) use
// it to bound their work by what actually changed.
type Delta struct {
	// ParentVersion is the Version() of the assignment ApplyDelta derived
	// this one from.
	ParentVersion uint64
	// Moves are the record relocations applied to the snapshot.
	Moves []Move
	// Cloaks are the cloak rewrites applied to the policy.
	Cloaks []CloakChange
}

// ErrNotMasking is returned when an assignment would not be a masking
// policy (Definition 4).
var ErrNotMasking = errors.New("lbs: cloak does not contain the user location")

// ErrDeltaMismatch is returned by ApplyDelta when a move's From location
// or a change's Old cloak disagrees with the parent assignment — the delta
// was computed against different state, and applying it would publish a
// corrupt policy. Callers recover by publishing from scratch.
var ErrDeltaMismatch = errors.New("lbs: delta does not match the parent assignment")

// NewAssignment wraps per-record cloaks over a snapshot, verifying the
// masking property. The cloaks are interned through one map, so later
// mutation of the caller's slice cannot corrupt the assignment.
func NewAssignment(db *location.DB, cloaks []geo.Rect) (*Assignment, error) {
	if len(cloaks) != db.Len() {
		return nil, fmt.Errorf("lbs: %d cloaks for %d users", len(cloaks), db.Len())
	}
	index := make(map[geo.Rect]int32)
	var table []geo.Rect
	ids := make([]int32, len(cloaks))
	for i, c := range cloaks {
		id, ok := index[c]
		if !ok {
			id = int32(len(table))
			index[c] = id
			table = append(table, c)
		}
		ids[i] = id
	}
	return NewTableAssignment(db, table, ids)
}

// NewTableAssignment wraps an interned policy over a snapshot: record i is
// issued table[ids[i]]. It verifies that every id is in the table and the
// masking property, and takes ownership of both slices. The table may hold
// one rectangle under two ids, and entries no record holds.
func NewTableAssignment(db *location.DB, table []geo.Rect, ids []int32) (*Assignment, error) {
	if len(ids) != db.Len() {
		return nil, fmt.Errorf("lbs: %d cloak ids for %d users", len(ids), db.Len())
	}
	var cost int64
	for i, id := range ids {
		if id < 0 || int(id) >= len(table) {
			return nil, fmt.Errorf("lbs: user %q has cloak id %d, table has %d", db.At(i).UserID, id, len(table))
		}
		c := table[id]
		if loc := db.At(i).Loc; !c.ContainsClosed(loc) {
			return nil, fmt.Errorf("%w: user %q at %v, cloak %v", ErrNotMasking, db.At(i).UserID, loc, c)
		}
		cost += c.Area()
	}
	return &Assignment{
		db:      db,
		table:   table,
		ids:     ids,
		n:       len(ids),
		cost:    cost,
		version: assignVersion.Add(1),
	}, nil
}

// ApplyDelta derives the successor assignment: the parent's snapshot with
// moves applied (through location.DB's copy-on-write clone) and the
// parent's cloak ids with changes applied (copying only the touched id
// pages). A changed-to cloak reuses its table id when the table already
// holds it, else it is appended; once more than half the table is ids no
// record holds, the successor gets a compacted table and fresh pages. The
// cost is O(moves + changes) apart from those compactions, not O(|D|):
// unchanged record and id pages are shared with the parent, which stays
// fully usable.
//
// Every move's From and every change's Old is checked against the parent —
// a mismatch returns ErrDeltaMismatch — and masking is re-verified for
// exactly the records the delta touched. ApplyDelta takes ownership of
// both slices (they are retained in Delta()); callers must not reuse them.
func (a *Assignment) ApplyDelta(moves []Move, changes []CloakChange) (*Assignment, error) {
	n := a.Len()
	mm := make(map[int]geo.Point, len(moves))
	for _, mv := range moves {
		if mv.Index < 0 || mv.Index >= n {
			return nil, fmt.Errorf("lbs: delta move index %d out of range [0,%d)", mv.Index, n)
		}
		if got := a.db.At(mv.Index).Loc; got != mv.From {
			return nil, fmt.Errorf("%w: move %d from %v, parent has %v", ErrDeltaMismatch, mv.Index, mv.From, got)
		}
		mm[mv.Index] = mv.To
	}
	for _, c := range changes {
		if c.Index < 0 || c.Index >= n {
			return nil, fmt.Errorf("lbs: delta cloak index %d out of range [0,%d)", c.Index, n)
		}
	}
	tail, table := a.takeTail()
	next := &Assignment{
		db:      a.db.CloneWithMoves(mm),
		n:       n,
		cost:    a.cost,
		version: assignVersion.Add(1),
		delta:   &Delta{ParentVersion: a.version, Moves: moves, Cloaks: changes},
	}
	// Page table: adopt the parent's pages, or pageify flat storage with
	// zero copying (the parent is immutable, so subslicing is safe — a
	// rewrite below replaces the whole page, never writes through).
	if a.pages != nil {
		next.pages = append(make([][]int32, 0, len(a.pages)), a.pages...)
	} else {
		next.pages = make([][]int32, (n+cloakPageSize-1)/cloakPageSize)
		for p := range next.pages {
			lo := p << cloakPageShift
			hi := min(n, lo+cloakPageSize)
			next.pages[p] = a.ids[lo:hi:hi]
		}
	}
	copied := make(map[int]struct{}, len(changes)>>4+1)
	for _, c := range changes {
		p := c.Index >> cloakPageShift
		if _, ok := copied[p]; !ok {
			next.pages[p] = slices.Clone(next.pages[p])
			copied[p] = struct{}{}
		}
		slot := &next.pages[p][c.Index&cloakPageMask]
		if got := table[*slot]; got != c.Old {
			return nil, fmt.Errorf("%w: cloak %d old %v, parent has %v", ErrDeltaMismatch, c.Index, c.Old, got)
		}
		id, ok := tail.index[c.New]
		if !ok {
			id = int32(len(table))
			tail.index[c.New] = id
			table = append(table, c.New)
			tail.refs = append(tail.refs, 0)
		}
		tail.release(*slot)
		tail.hold(id)
		*slot = id
		next.cost += c.New.Area() - c.Old.Area()
	}
	next.table, next.tail = table, tail
	if len(next.table) > 2*tail.live {
		next.compact()
	}
	// Masking, re-verified for exactly what the delta touched (the
	// constructors verify all of |D|; everything untouched was verified
	// when the ancestor was built).
	for _, c := range changes {
		if loc := next.db.At(c.Index).Loc; !c.New.ContainsClosed(loc) {
			return nil, fmt.Errorf("%w: user %q at %v, cloak %v",
				ErrNotMasking, next.db.At(c.Index).UserID, loc, c.New)
		}
	}
	for _, mv := range moves {
		if cl := next.CloakAt(mv.Index); !cl.ContainsClosed(mv.To) {
			return nil, fmt.Errorf("%w: user %q moved to %v, cloak %v",
				ErrNotMasking, next.db.At(mv.Index).UserID, mv.To, cl)
		}
	}
	return next, nil
}

// takeTail hands a delta derivation the chain state it extends and the
// table it may append to. The first derivation takes a's own (building it
// on a's first derivation) and the table's spare capacity; a later one gets
// a copy rebuilt from a's immutable table and ids, and a table that
// reallocates on its first append.
func (a *Assignment) takeTail() (*chainTail, []geo.Rect) {
	if a.claimed.CompareAndSwap(false, true) {
		t := a.tail
		a.tail = nil
		if t == nil {
			t = a.buildTail()
		}
		return t, a.table
	}
	return a.buildTail(), slices.Clip(a.table)
}

// buildTail indexes a's table and counts the records holding each id.
func (a *Assignment) buildTail() *chainTail {
	t := &chainTail{index: make(map[geo.Rect]int32, len(a.table)), refs: make([]int32, len(a.table))}
	for id, c := range a.table {
		if _, ok := t.index[c]; !ok {
			t.index[c] = int32(id)
		}
	}
	for _, run := range a.idRuns(0, a.n) {
		for _, id := range run {
			t.hold(id)
		}
	}
	return t
}

func (t *chainTail) hold(id int32) {
	if t.refs[id] == 0 {
		t.live++
	}
	t.refs[id]++
}

func (t *chainTail) release(id int32) {
	t.refs[id]--
	if t.refs[id] == 0 {
		t.live--
	}
}

// compact drops the table entries no record holds and renumbers every id,
// writing fresh pages: O(|D|), paid once the chain has appended at least
// as many entries as it keeps, so O(1) per appended entry.
func (a *Assignment) compact() {
	t := a.tail
	remap := make([]int32, len(a.table))
	table := make([]geo.Rect, 0, t.live)
	refs := make([]int32, 0, t.live)
	clear(t.index)
	for id, c := range a.table {
		if t.refs[id] == 0 {
			continue
		}
		remap[id] = int32(len(table))
		t.index[c] = int32(len(table))
		table = append(table, c)
		refs = append(refs, t.refs[id])
	}
	for p, pg := range a.pages {
		fresh := make([]int32, len(pg))
		for j, id := range pg {
			fresh[j] = remap[id]
		}
		a.pages[p] = fresh
	}
	a.table, t.refs = table, refs
}

// Version returns the assignment's globally monotonic version: later-built
// assignments always have larger versions, and two assignments never share
// one. It keys per-assignment memoization.
func (a *Assignment) Version() uint64 { return a.version }

// Delta returns how this assignment differs from its parent, or nil for
// assignments built from scratch. The returned value is shared, not a
// copy; callers must not mutate it.
func (a *Assignment) Delta() *Delta { return a.delta }

// DB returns the snapshot the assignment covers.
func (a *Assignment) DB() *location.DB { return a.db }

// Len returns the number of users covered.
func (a *Assignment) Len() int { return a.n }

// Memo returns the value a previous Memo call derived from this
// assignment, or calls build and keeps its result. The slot lives and dies
// with the assignment, so a memoized value pins nothing the assignment does
// not already pin; it holds one value, so an assignment has one kind of
// memo (attacker.SurveyOf's policy survey). Concurrent callers build once.
//
// An assignment is immutable but its snapshot is only immutable by
// convention (core.Anonymizer.Policy binds to the live DB its matrix
// moves), so the slot is keyed on the snapshot's Version: a value derived
// before an in-place move is rebuilt, never served stale.
func (a *Assignment) Memo(build func() any) any {
	ver := a.db.Version()
	if m := a.memo.Load(); m != nil && m.dbVersion == ver {
		return m.val
	}
	a.memoMu.Lock()
	defer a.memoMu.Unlock()
	if m := a.memo.Load(); m != nil && m.dbVersion == ver {
		return m.val
	}
	m := &memo{dbVersion: ver, val: build()}
	a.memo.Store(m)
	return m.val
}

// CloakAt returns the cloak of the i-th record.
func (a *Assignment) CloakAt(i int) geo.Rect {
	if a.pages == nil {
		return a.table[a.ids[i]]
	}
	return a.table[a.pages[i>>cloakPageShift][i&cloakPageMask]]
}

// TableLen returns the number of entries in the assignment's cloak table,
// those no record holds included: at most about twice the distinct cloaks
// the records hold, plus one delta's new cloaks, along any delta chain.
func (a *Assignment) TableLen() int { return len(a.table) }

// CloakRuns iterates the per-record cloaks in record order as contiguous
// runs of up to 128, each with the record index of its first entry. Full
// passes use it instead of CloakAt, which pays a storage-form branch and a
// page-table hop per record. A run is read out of the table into one
// buffer that the next run overwrites: callers must not write to it or
// keep it.
func (a *Assignment) CloakRuns() iter.Seq2[int, []geo.Rect] {
	return func(yield func(int, []geo.Rect) bool) {
		buf := make([]geo.Rect, cloakPageSize)
		for base, run := range a.idRuns(0, a.n) {
			for lo := 0; lo < len(run); lo += cloakPageSize {
				part := run[lo:min(len(run), lo+cloakPageSize)]
				out := buf[:len(part)]
				for j, id := range part {
					out[j] = a.table[id]
				}
				if !yield(base+lo, out) {
					return
				}
			}
		}
	}
}

// Cloaks returns a freshly allocated copy of the per-record cloaks in
// record order, read out of the table; mutating it does not affect the
// assignment.
func (a *Assignment) Cloaks() []geo.Rect {
	out := make([]geo.Rect, 0, a.n)
	for _, run := range a.CloakRuns() {
		out = append(out, run...)
	}
	return out
}

// CloakOf returns the cloak assigned to a user.
func (a *Assignment) CloakOf(userID string) (geo.Rect, error) {
	i := a.db.Index(userID)
	if i < 0 {
		return geo.Rect{}, fmt.Errorf("%w: %q", location.ErrUnknownUser, userID)
	}
	return a.CloakAt(i), nil
}

// Anonymize applies the policy to a service request (Definition 4),
// producing the anonymized request the CSP forwards to the LBS.
func (a *Assignment) Anonymize(rid uint64, sr ServiceRequest) (AnonymizedRequest, error) {
	if !sr.Valid(a.db) {
		return AnonymizedRequest{}, fmt.Errorf("lbs: request by %q invalid w.r.t. snapshot", sr.UserID)
	}
	cloak, err := a.CloakOf(sr.UserID)
	if err != nil {
		return AnonymizedRequest{}, err
	}
	return AnonymizedRequest{RID: rid, Cloak: cloak, Params: sr.Params}, nil
}

// Cost returns the Section-IV policy cost: the summed cloak area if every
// user issues exactly one request. It is O(1): the sum is taken when the
// assignment is built.
func (a *Assignment) Cost() int64 { return a.cost }

// AvgArea returns Cost / |D|, the metric of Fig. 5(a).
func (a *Assignment) AvgArea() float64 {
	if a.Len() == 0 {
		return 0
	}
	return float64(a.Cost()) / float64(a.Len())
}

// Groups returns the cloaking groups: for each distinct cloak, the indices
// of users assigned to it, each group sorted ascending and the groups
// ordered deterministically. It is a sort of the cloak table, which merges
// any rectangle stored under two ids, and a counting sort of the records
// by their canonical id into one shared backing array, which leaves every
// group's members ascending without sorting them: no record's rectangle is
// hashed or compared. The counting passes are split across GOMAXPROCS
// goroutines, at most one per id page; the result does not depend on how
// many.
func (a *Assignment) Groups() []Group { return a.GroupsOn(runtime.GOMAXPROCS(0)) }

// GroupsOn is Groups split across up to workers goroutines, each counting
// and then placing a range of whole id pages. A group's slice is filled
// range by range in record order, so its members stay ascending.
func (a *Assignment) GroupsOn(workers int) []Group {
	canon, cloaks := a.canonical()
	pages := (a.n + cloakPageMask) >> cloakPageShift
	workers = max(1, min(workers, pages))
	part := func(w int) (lo, hi int) {
		return min(a.n, (w*pages/workers)<<cloakPageShift), min(a.n, ((w+1)*pages/workers)<<cloakPageShift)
	}
	nc := len(cloaks)
	// next[w*nc+c] counts part w's records under canonical cloak c, then
	// holds where the next of them goes in members.
	next := make([]int, workers*nc)
	fanOut(workers, func(w int) {
		count := next[w*nc : (w+1)*nc]
		for _, run := range a.idRuns(part(w)) {
			for _, id := range run {
				count[canon[id]]++
			}
		}
	})
	members := make([]int, a.n)
	groups := make([]Group, 0, nc)
	off := 0
	for c, cloak := range cloaks {
		start := off
		for w := range workers {
			n := next[w*nc+c]
			next[w*nc+c] = off
			off += n
		}
		if off > start { // ids no record holds make no group
			groups = append(groups, Group{Cloak: cloak, Members: members[start:off:off]})
		}
	}
	fanOut(workers, func(w int) {
		place := next[w*nc : (w+1)*nc]
		for base, run := range a.idRuns(part(w)) {
			for j, id := range run {
				c := canon[id]
				members[place[c]] = base + j
				place[c]++
			}
		}
	})
	return groups
}

// canonical numbers the table's distinct rectangles in rectLess order and
// maps every id to the number of its rectangle, so ids holding one
// rectangle share a number and numbers run in group order.
func (a *Assignment) canonical() (canon []int32, cloaks []geo.Rect) {
	type entry struct {
		cloak geo.Rect
		id    int32
	}
	order := make([]entry, len(a.table))
	for id, c := range a.table {
		order[id] = entry{c, int32(id)}
	}
	slices.SortFunc(order, func(x, y entry) int { return rectCmp(x.cloak, y.cloak) })
	canon = make([]int32, len(a.table))
	for _, e := range order {
		if len(cloaks) == 0 || cloaks[len(cloaks)-1] != e.cloak {
			cloaks = append(cloaks, e.cloak)
		}
		canon[e.id] = int32(len(cloaks) - 1)
	}
	return canon, cloaks
}

// idRuns iterates the per-record ids in [lo, hi) as contiguous runs —
// one run of flat storage, one page at a time of paged storage — each with
// the record index of its first entry. lo is a page boundary and hi a page
// boundary or the end.
func (a *Assignment) idRuns(lo, hi int) iter.Seq2[int, []int32] {
	return func(yield func(int, []int32) bool) {
		if a.pages == nil {
			if lo < hi {
				yield(lo, a.ids[lo:hi])
			}
			return
		}
		for p := lo >> cloakPageShift; p<<cloakPageShift < hi; p++ {
			if !yield(p<<cloakPageShift, a.pages[p]) {
				return
			}
		}
	}
}

// fanOut runs fn(0) … fn(n-1) on n goroutines, the caller's among them,
// and returns when all have.
func fanOut(n int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// Group is one cloaking group: the set of users sharing a cloak.
type Group struct {
	Cloak   geo.Rect
	Members []int
}

// rectCmp orders rectangles by MinX, MinY, MaxX, MaxY.
func rectCmp(a, b geo.Rect) int {
	if c := cmp.Compare(a.MinX, b.MinX); c != 0 {
		return c
	}
	if c := cmp.Compare(a.MinY, b.MinY); c != 0 {
		return c
	}
	if c := cmp.Compare(a.MaxX, b.MaxX); c != 0 {
		return c
	}
	return cmp.Compare(a.MaxY, b.MaxY)
}

func rectLess(a, b geo.Rect) bool { return rectCmp(a, b) < 0 }
