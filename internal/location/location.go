// Package location implements the location database of Section II-A: the
// (possibly virtual) relation D = {userid, locx, locy} that the Mobile
// Positioning Center exposes to the CSP, refreshed periodically as users
// move. A DB value is one snapshot; a sequence of snapshots models the
// database over time.
package location

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"policyanon/internal/geo"
)

// Record is one tuple of the location database.
type Record struct {
	UserID string
	Loc    geo.Point
}

// DB is a snapshot of the location database. The zero value is an empty
// snapshot ready for use.
//
// A snapshot has one of two storage forms, which serve reads identically.
// Directly built snapshots are flat (one record slice). CloneWithMoves
// derives paged snapshots that share every unchanged 128-record page —
// and the user index — with their parent, so deriving the next published
// snapshot from a small move batch costs O(moves), not O(|D|).
//
// One rule governs every write: storage that has been shared is never
// written in place. CloneWithMoves marks the storage of both sides as
// shared. Move and MoveAt then copy the one page they land on (a shared
// flat snapshot turns paged by subslicing, copying no record), and Add
// copies the last page and the user index. So each snapshot reads
// exactly its own history, whichever of its relatives is written later.
type DB struct {
	records []Record       // flat storage; nil iff paged
	pages   [][]Record     // paged storage; nil iff flat
	n       int            // record count when paged
	byUser  map[string]int // user id -> record index
	version uint64         // bumped on every mutation; see Version
	// The sharing marks, read by writers only. shared marks flat records
	// a copy-on-write relative reads; owned[p] that page p is this
	// snapshot's alone; sharedIndex that byUser is shared, so Add copies
	// it before inserting (Move and MoveAt never write it).
	shared      bool
	owned       []bool
	sharedIndex bool
	// indexing and indexErr are FromRecordsBeside's join: the goroutine
	// filling byUser sets indexErr before it is done.
	indexing sync.WaitGroup
	indexErr error
}

// Record pages hold 128 entries, matching the published-assignment cloak
// pages: batched random moves touch roughly one page per move, so page
// size sets the COW copy traffic per batch almost linearly (~3 KiB per
// rewritten record), while the page table of the paper's 1.75M Master
// set stays around fourteen thousand entries.
const (
	recPageShift = 7
	recPageSize  = 1 << recPageShift
	recPageMask  = recPageSize - 1
)

// ErrDuplicateUser is returned when inserting a user id already present in
// the snapshot.
var ErrDuplicateUser = errors.New("location: duplicate user id")

// ErrUnknownUser is returned by lookups and updates for absent user ids.
var ErrUnknownUser = errors.New("location: unknown user id")

// New returns an empty snapshot with capacity for n records.
func New(n int) *DB {
	return &DB{records: make([]Record, 0, n), byUser: make(map[string]int, n)}
}

// FromRecords builds a snapshot from recs in one pass: the records are
// copied once (the snapshot never aliases the caller's slice), the user
// index is sized once, and each id costs a single map insert — a
// duplicate shows as an insert that did not grow the map. It fails on
// duplicate user ids, and leaves Version where New followed by one Add
// per record would. It is FromRecordsBeside over a copy, joined at once.
func FromRecords(recs []Record) (*DB, error) {
	db := unindexed(append(make([]Record, 0, len(recs)), recs...))
	if err := db.fillIndex(); err != nil {
		return nil, err
	}
	return db, nil
}

// FromRecordsBeside is FromRecords with the user index built beside the
// caller's next step. The snapshot takes recs as its storage (the caller
// must not touch them again) and is returned at once; its user index is
// filled on a second goroutine, or before returning when GOMAXPROCS is 1.
// Until JoinIndex has returned nil, the snapshot's records may be read
// (Len, At, Points, Records, CloneWithMoves), but nothing may read its
// user index (Index, Lookup, Move, Add, Clone) and it must not be
// published; the race detector reports a reader that runs early.
func FromRecordsBeside(recs []Record) *DB {
	db := unindexed(recs)
	if runtime.GOMAXPROCS(0) == 1 {
		db.indexErr = db.fillIndex()
		return db
	}
	db.indexing.Add(1)
	go func() {
		db.indexErr = db.fillIndex()
		db.indexing.Done()
	}()
	return db
}

// JoinIndex waits for the user index FromRecordsBeside is filling and
// reports its first duplicate id exactly as FromRecords would; after an
// error the snapshot is to be discarded. On any other snapshot it
// returns nil at once.
func (db *DB) JoinIndex() error {
	db.indexing.Wait()
	return db.indexErr
}

// unindexed makes recs a flat snapshot whose user index is allocated at
// its final size but still empty. CloneWithMoves shares the map by
// reference, so a clone taken before fillIndex sees the filled index too.
func unindexed(recs []Record) *DB {
	if recs == nil {
		recs = []Record{} // flat storage is non-nil
	}
	return &DB{
		records: recs,
		byUser:  make(map[string]int, len(recs)),
		version: uint64(len(recs)),
	}
}

// fillIndex is the one loop that indexes a snapshot made by unindexed.
// It writes the contents of the byUser map and no field of db.
func (db *DB) fillIndex() error {
	for i := range db.records {
		id := db.records[i].UserID
		db.byUser[id] = i
		if len(db.byUser) != i+1 {
			return fmt.Errorf("record %q: %w: %q", id, ErrDuplicateUser, id)
		}
	}
	return nil
}

// Add inserts a user at the given location.
func (db *DB) Add(userID string, loc geo.Point) error {
	if db.byUser == nil {
		db.byUser = make(map[string]int)
	}
	if _, ok := db.byUser[userID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateUser, userID)
	}
	if db.sharedIndex {
		db.byUser = maps.Clone(db.byUser)
		db.sharedIndex = false
	}
	i, rec := db.Len(), Record{UserID: userID, Loc: loc}
	if db.pages == nil && !db.shared {
		db.records = append(db.records, rec)
	} else {
		db.pageify()
		if i&recPageMask == 0 {
			db.pages, db.owned = append(db.pages, make([]Record, 0, recPageSize)), append(db.owned, true)
		}
		p := len(db.pages) - 1
		db.own(p)
		db.pages[p] = append(db.pages[p], rec)
		db.n++
	}
	db.byUser[userID] = i
	db.version++
	return nil
}

// slot returns record i for writing: in place while the storage is this
// snapshot's alone, else in a private copy of its page.
func (db *DB) slot(i int) *Record {
	if db.pages == nil && !db.shared {
		return &db.records[i]
	}
	db.pageify()
	db.own(i >> recPageShift)
	return &db.pages[i>>recPageShift][i&recPageMask]
}

// pageify turns flat storage into pages that subslice it, copying no
// record; none of them is owned, since the flat records may be shared.
func (db *DB) pageify() {
	if db.pages != nil {
		return
	}
	db.pages, db.n = pagesOf(db.records), len(db.records)
	db.owned = make([]bool, len(db.pages))
	db.records, db.shared = nil, false
}

// own copies page p unless this snapshot owns it already. The copy has a
// full page of capacity, so Add appends to it in place.
func (db *DB) own(p int) {
	if !db.owned[p] {
		db.pages[p] = append(make([]Record, 0, recPageSize), db.pages[p]...)
		db.owned[p] = true
	}
}

// pagesOf splits recs into pages by subslicing. Each page's capacity ends
// at its length, so an append to one never grows into its neighbour.
func pagesOf(recs []Record) [][]Record {
	pages := make([][]Record, (len(recs)+recPageSize-1)/recPageSize)
	for p := range pages {
		lo := p << recPageShift
		hi := min(lo+recPageSize, len(recs))
		pages[p] = recs[lo:hi:hi]
	}
	return pages
}

// Version returns a counter incremented on every mutation (Add, Move,
// MoveAt). Two calls observing the same version are guaranteed to see the
// same snapshot contents, which lets callers memoize per-snapshot results
// (e.g. the engine caching middleware). Clone preserves the version.
func (db *DB) Version() uint64 { return db.version }

// Len returns the number of users in the snapshot (|D| in the paper).
func (db *DB) Len() int {
	if db.pages != nil {
		return db.n
	}
	return len(db.records)
}

// At returns the i-th record in insertion order.
func (db *DB) At(i int) Record {
	if db.records != nil {
		return db.records[i]
	}
	return db.pages[i>>recPageShift][i&recPageMask]
}

// forEach visits every record in insertion order.
func (db *DB) forEach(f func(i int, r Record)) {
	if db.records != nil {
		for i := range db.records {
			f(i, db.records[i])
		}
		return
	}
	i := 0
	for _, pg := range db.pages {
		for j := range pg {
			f(i, pg[j])
			i++
		}
	}
}

// Records returns the records in insertion order. For flat snapshots this
// is the backing slice — callers must not mutate it; for paged
// (CloneWithMoves-derived) snapshots each call materializes a fresh copy,
// so concurrent readers never share a lazily built buffer.
func (db *DB) Records() []Record {
	if db.records != nil {
		return db.records
	}
	out := make([]Record, 0, db.n)
	for _, pg := range db.pages {
		out = append(out, pg...)
	}
	return out
}

// Points returns a freshly allocated slice of all user locations in
// insertion order.
func (db *DB) Points() []geo.Point {
	pts := make([]geo.Point, db.Len())
	db.forEach(func(i int, r Record) { pts[i] = r.Loc })
	return pts
}

// Lookup returns the location of a user.
func (db *DB) Lookup(userID string) (geo.Point, error) {
	i, ok := db.byUser[userID]
	if !ok {
		return geo.Point{}, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	return db.At(i).Loc, nil
}

// Index returns the record index of a user, or -1 if absent.
func (db *DB) Index(userID string) int {
	i, ok := db.byUser[userID]
	if !ok {
		return -1
	}
	return i
}

// Move updates a user's location, modelling one row of the next
// snapshot. It returns the previous location.
func (db *DB) Move(userID string, to geo.Point) (geo.Point, error) {
	i, ok := db.byUser[userID]
	if !ok {
		return geo.Point{}, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
	}
	return db.MoveAt(i, to), nil
}

// MoveAt updates the i-th record's location and returns the previous one.
// On shared storage it copies the record's page first.
func (db *DB) MoveAt(i int, to geo.Point) geo.Point {
	r := db.slot(i)
	prev := r.Loc
	r.Loc = to
	db.version++
	return prev
}

// Clone returns a deep copy of the snapshot.
func (db *DB) Clone() *DB {
	recs := make([]Record, 0, db.Len())
	db.forEach(func(_ int, r Record) { recs = append(recs, r) })
	out := &DB{
		records: recs,
		byUser:  make(map[string]int, len(db.byUser)),
		version: db.version,
	}
	for k, v := range db.byUser {
		out.byUser[k] = v
	}
	return out
}

// CloneWithMoves derives the snapshot that results from applying moves
// (record index -> new location) without copying the database: the derived
// snapshot shares every untouched record page and the user index with db,
// copying only the pages a move lands on, so it costs O(pages + moves)
// instead of the O(|D|) of Clone. It marks the storage of both snapshots
// as shared, so neither is written in place again: a later write to
// either copies the page it lands on, and never shows through the other.
// It writes only db's sharing marks, which no reader reads: it may run
// beside readers of db, but not beside a write or another CloneWithMoves.
//
// The version advances by len(moves) — the same count of bumps MoveAt
// would have produced — so a chain of CloneWithMoves snapshots tracks the
// version of a live DB receiving the same moves.
func (db *DB) CloneWithMoves(moves map[int]geo.Point) *DB {
	out := &DB{
		n:           db.Len(),
		byUser:      db.byUser,
		sharedIndex: true,
		version:     db.version + uint64(len(moves)),
	}
	db.sharedIndex = true
	if db.pages != nil {
		out.pages = slices.Clone(db.pages)
		clear(db.owned)
	} else {
		out.pages = pagesOf(db.records)
		db.shared = true
	}
	out.owned = make([]bool, len(out.pages))
	for i, to := range moves {
		out.slot(i).Loc = to
	}
	return out
}

// Sample draws a uniform random sample of n distinct users using rng,
// mirroring the paper's sampling of the 1.75M Master set into smaller
// location databases. It fails if n exceeds the snapshot size.
func (db *DB) Sample(rng *rand.Rand, n int) (*DB, error) {
	if n > db.Len() {
		return nil, fmt.Errorf("location: sample size %d exceeds population %d", n, db.Len())
	}
	perm := rng.Perm(db.Len())
	out := New(n)
	for _, idx := range perm[:n] {
		r := db.At(idx)
		if err := out.Add(r.UserID, r.Loc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Bounds returns the tight bounding rectangle of all locations (half-open),
// or an empty rectangle for an empty snapshot.
func (db *DB) Bounds() geo.Rect {
	var b geo.Rect
	db.forEach(func(_ int, r Record) { b = b.ExpandToPoint(r.Loc) })
	return b
}

// CountIn returns the number of users inside the half-open rectangle r,
// i.e. d(m) of Definition 7 for the quadrant r.
func (db *DB) CountIn(r geo.Rect) int {
	n := 0
	db.forEach(func(_ int, rec Record) {
		if r.Contains(rec.Loc) {
			n++
		}
	})
	return n
}

// UsersIn returns the ids of users inside the half-open rectangle r, in
// insertion order.
func (db *DB) UsersIn(r geo.Rect) []string {
	var out []string
	db.forEach(func(_ int, rec Record) {
		if r.Contains(rec.Loc) {
			out = append(out, rec.UserID)
		}
	})
	return out
}

// Diff returns the indices of records whose location differs between db and
// next. The two snapshots must contain the same users in the same insertion
// order (users only move between snapshots; arrivals and departures are
// modelled as separate snapshots in this reproduction).
func (db *DB) Diff(next *DB) ([]int, error) {
	if db.Len() != next.Len() {
		return nil, fmt.Errorf("location: diff size mismatch %d vs %d", db.Len(), next.Len())
	}
	var moved []int
	for i := 0; i < db.Len(); i++ {
		a, b := db.At(i), next.At(i)
		if a.UserID != b.UserID {
			return nil, fmt.Errorf("location: diff user mismatch at %d: %q vs %q",
				i, a.UserID, b.UserID)
		}
		if a.Loc != b.Loc {
			moved = append(moved, i)
		}
	}
	return moved, nil
}

// WriteCSV writes the snapshot as "userid,locx,locy" rows.
func (db *DB) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	var werr error
	db.forEach(func(_ int, r Record) {
		if werr != nil {
			return
		}
		rec := []string{r.UserID, strconv.FormatInt(int64(r.Loc.X), 10), strconv.FormatInt(int64(r.Loc.Y), 10)}
		if err := cw.Write(rec); err != nil {
			werr = fmt.Errorf("location: write csv: %w", err)
		}
	})
	if werr != nil {
		return werr
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses "userid,locx,locy" rows into a snapshot.
func ReadCSV(r io.Reader) (*DB, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	db := New(0)
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return db, nil
		}
		if err != nil {
			return nil, fmt.Errorf("location: read csv: %w", err)
		}
		x, err := strconv.ParseInt(rec[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("location: line %d: bad locx %q: %w", line, rec[1], err)
		}
		y, err := strconv.ParseInt(rec[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("location: line %d: bad locy %q: %w", line, rec[2], err)
		}
		if err := db.Add(rec[0], geo.Point{X: int32(x), Y: int32(y)}); err != nil {
			return nil, fmt.Errorf("location: line %d: %w", line, err)
		}
	}
}

// SortedUserIDs returns all user ids in lexicographic order; useful for
// deterministic iteration in tests and reports.
func (db *DB) SortedUserIDs() []string {
	ids := make([]string, 0, db.Len())
	db.forEach(func(_ int, r Record) { ids = append(ids, r.UserID) })
	sort.Strings(ids)
	return ids
}
