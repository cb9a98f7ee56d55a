// Package lbs models the privacy-conscious location-based-service setting
// of Section II: service requests created by the CSP (Definition 1),
// anonymized requests with cloaks (Definition 2), masking (Definition 3),
// and cloaking policies (Definition 4) represented as per-snapshot cloak
// assignments. It also provides the LBS provider substrate: a point-of-
// interest store with cloaked nearest-neighbour evaluation, and the
// anonymizing CSP front end with the result cache of Section VII.
package lbs

import (
	"errors"
	"fmt"
	"iter"
	"sort"
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
// Assignments are immutable once built and versioned: a policy change
// produces a new value, either from scratch (NewAssignment, flat cloak
// storage) or derived from a predecessor (ApplyDelta, paged copy-on-write
// storage sharing every unchanged page with the parent). Version()
// increases monotonically across both paths, so consumers can memoize
// per-assignment results and, via Delta(), invalidate only what a delta
// publish actually touched.
type Assignment struct {
	db *location.DB
	// cloaks is the flat storage of from-scratch assignments (nil iff
	// paged); pages is the copy-on-write storage of delta-derived ones.
	cloaks []geo.Rect // indexed like db records
	pages  [][]geo.Rect
	n      int

	version uint64
	delta   *Delta

	// memo is the assignment's one derived-value slot (see Memo).
	memoMu sync.Mutex
	memo   atomic.Pointer[memo]
}

// memo is a value derived from an assignment, tagged with the snapshot
// version it was derived at.
type memo struct {
	dbVersion uint64
	val       any
}

// Cloak pages hold 128 entries: small enough that rewriting one cloak
// copies ~2 KiB (cloak-delta batches touch pages roughly one per changed
// user, so page size sets the COW traffic per publish almost linearly),
// large enough that the page table of the paper's 1.75M Master set stays
// around fourteen thousand entries.
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
// masking property. The cloaks slice is copied, so later mutation of the
// caller's slice cannot corrupt the assignment.
func NewAssignment(db *location.DB, cloaks []geo.Rect) (*Assignment, error) {
	if len(cloaks) != db.Len() {
		return nil, fmt.Errorf("lbs: %d cloaks for %d users", len(cloaks), db.Len())
	}
	for i, c := range cloaks {
		if !c.ContainsClosed(db.At(i).Loc) {
			return nil, fmt.Errorf("%w: user %q at %v, cloak %v",
				ErrNotMasking, db.At(i).UserID, db.At(i).Loc, c)
		}
	}
	return &Assignment{
		db:      db,
		cloaks:  append([]geo.Rect(nil), cloaks...),
		n:       db.Len(),
		version: assignVersion.Add(1),
	}, nil
}

// ApplyDelta derives the successor assignment: the parent's snapshot with
// moves applied (through location.DB's copy-on-write clone) and the
// parent's cloaks with changes applied (copying only the touched cloak
// pages). The cost is O(moves + changes), not O(|D|): unchanged record and
// cloak pages are shared with the parent, which stays fully usable.
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
	next := &Assignment{
		db:      a.db.CloneWithMoves(mm),
		n:       n,
		version: assignVersion.Add(1),
		delta:   &Delta{ParentVersion: a.version, Moves: moves, Cloaks: changes},
	}
	// Page table: adopt the parent's pages, or pageify flat storage with
	// zero copying (the parent is immutable, so subslicing is safe — a
	// rewrite below replaces the whole page, never writes through).
	if a.pages != nil {
		next.pages = append(make([][]geo.Rect, 0, len(a.pages)), a.pages...)
	} else {
		next.pages = make([][]geo.Rect, (n+cloakPageSize-1)/cloakPageSize)
		for p := range next.pages {
			lo := p << cloakPageShift
			hi := lo + cloakPageSize
			if hi > n {
				hi = n
			}
			next.pages[p] = a.cloaks[lo:hi:hi]
		}
	}
	copied := make(map[int]struct{}, len(changes)>>4+1)
	for _, c := range changes {
		if c.Index < 0 || c.Index >= n {
			return nil, fmt.Errorf("lbs: delta cloak index %d out of range [0,%d)", c.Index, n)
		}
		p := c.Index >> cloakPageShift
		if _, ok := copied[p]; !ok {
			next.pages[p] = append([]geo.Rect(nil), next.pages[p]...)
			copied[p] = struct{}{}
		}
		if got := next.pages[p][c.Index&cloakPageMask]; got != c.Old {
			return nil, fmt.Errorf("%w: cloak %d old %v, parent has %v", ErrDeltaMismatch, c.Index, c.Old, got)
		}
		next.pages[p][c.Index&cloakPageMask] = c.New
	}
	// Masking, re-verified for exactly what the delta touched (NewAssignment
	// verifies all of |D|; everything untouched was verified when the
	// ancestor was built).
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
// convention (an engine's policy is bound to the live DB until it is
// rebound to a clone), so the slot is keyed on the snapshot's Version: a
// value derived before an in-place move is rebuilt, never served stale.
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
	if a.cloaks != nil {
		return a.cloaks[i]
	}
	return a.pages[i>>cloakPageShift][i&cloakPageMask]
}

// CloakRuns iterates the per-record cloaks in record order as contiguous
// runs — the whole flat slice of a from-scratch assignment, one page at a
// time for a delta-derived one — each with the record index of its first
// entry. Full passes use it instead of CloakAt, which pays a storage-form
// branch and a page-table hop per record. The runs are the assignment's
// own storage: callers must not write to them.
func (a *Assignment) CloakRuns() iter.Seq2[int, []geo.Rect] {
	return func(yield func(int, []geo.Rect) bool) {
		if a.cloaks != nil {
			yield(0, a.cloaks)
			return
		}
		for p, pg := range a.pages {
			if !yield(p<<cloakPageShift, pg) {
				return
			}
		}
	}
}

// Cloaks returns a freshly allocated copy of the per-record cloaks in
// record order; mutating it does not affect the assignment.
func (a *Assignment) Cloaks() []geo.Rect {
	if a.cloaks != nil {
		return append([]geo.Rect(nil), a.cloaks...)
	}
	out := make([]geo.Rect, 0, a.n)
	for _, pg := range a.pages {
		out = append(out, pg...)
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
// user issues exactly one request.
func (a *Assignment) Cost() int64 {
	var c int64
	for _, run := range a.CloakRuns() {
		for _, r := range run {
			c += r.Area()
		}
	}
	return c
}

// AvgArea returns Cost / |D|, the metric of Fig. 5(a).
func (a *Assignment) AvgArea() float64 {
	if a.Len() == 0 {
		return 0
	}
	return float64(a.Cost()) / float64(a.Len())
}

// Groups returns the cloaking groups: for each distinct cloak, the indices
// of users assigned to it, each group sorted ascending and the groups
// ordered deterministically. It is one O(|D|) pass plus a sort of the
// distinct cloaks: records are numbered by group as they are met and then
// counting-sorted into one shared backing array, which leaves every
// group's members ascending without sorting them.
func (a *Assignment) Groups() []Group {
	// Number the distinct cloaks as they are first met.
	gid := make([]int32, a.n) // record -> cloak number
	number := make(map[geo.Rect]int32)
	var cloaks []geo.Rect
	var sizes []int
	for base, run := range a.CloakRuns() {
		for j, c := range run {
			g, ok := number[c]
			if !ok {
				g = int32(len(cloaks))
				number[c] = g
				cloaks = append(cloaks, c)
				sizes = append(sizes, 0)
			}
			sizes[g]++
			gid[base+j] = g
		}
	}
	order := make([]int32, len(cloaks)) // output position -> cloak number
	for g := range order {
		order[g] = int32(g)
	}
	sort.Slice(order, func(i, j int) bool { return rectLess(cloaks[order[i]], cloaks[order[j]]) })
	members := make([]int, a.n)
	groups := make([]Group, len(cloaks))
	next := make([]int, len(cloaks)) // cloak number -> next free slot in members
	off := 0
	for pos, g := range order {
		end := off + sizes[g]
		groups[pos] = Group{Cloak: cloaks[g], Members: members[off:end:end]}
		next[g] = off
		off = end
	}
	for i, g := range gid {
		members[next[g]] = i
		next[g]++
	}
	return groups
}

// Group is one cloaking group: the set of users sharing a cloak.
type Group struct {
	Cloak   geo.Rect
	Members []int
}

func rectLess(a, b geo.Rect) bool {
	if a.MinX != b.MinX {
		return a.MinX < b.MinX
	}
	if a.MinY != b.MinY {
		return a.MinY < b.MinY
	}
	if a.MaxX != b.MaxX {
		return a.MaxX < b.MaxX
	}
	return a.MaxY < b.MaxY
}
