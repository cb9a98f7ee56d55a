package location

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"policyanon/internal/geo"
)

// tableI is the location database D1 from Table I of the paper.
func tableI(t *testing.T) *DB {
	t.Helper()
	db, err := FromRecords([]Record{
		{"Alice", geo.Point{X: 1, Y: 1}},
		{"Bob", geo.Point{X: 1, Y: 2}},
		{"Carol", geo.Point{X: 1, Y: 4}},
		{"Sam", geo.Point{X: 3, Y: 1}},
		{"Tom", geo.Point{X: 4, Y: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestAddLookup(t *testing.T) {
	db := tableI(t)
	if db.Len() != 5 {
		t.Fatalf("Len = %d", db.Len())
	}
	p, err := db.Lookup("Carol")
	if err != nil {
		t.Fatal(err)
	}
	if p != (geo.Point{X: 1, Y: 4}) {
		t.Errorf("Carol at %v", p)
	}
	if _, err := db.Lookup("Mallory"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("expected ErrUnknownUser, got %v", err)
	}
	if err := db.Add("Alice", geo.Point{}); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("expected ErrDuplicateUser, got %v", err)
	}
	if db.Index("Sam") != 3 || db.Index("Nobody") != -1 {
		t.Errorf("Index wrong: Sam=%d Nobody=%d", db.Index("Sam"), db.Index("Nobody"))
	}
}

func TestZeroValueUsable(t *testing.T) {
	var db DB
	if err := db.Add("u", geo.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Fatal("zero-value DB should accept Add")
	}
}

func TestMove(t *testing.T) {
	db := tableI(t)
	prev, err := db.Move("Tom", geo.Point{X: 9, Y: 9})
	if err != nil {
		t.Fatal(err)
	}
	if prev != (geo.Point{X: 4, Y: 4}) {
		t.Errorf("prev = %v", prev)
	}
	p, _ := db.Lookup("Tom")
	if p != (geo.Point{X: 9, Y: 9}) {
		t.Errorf("Tom at %v after move", p)
	}
	if _, err := db.Move("Mallory", geo.Point{}); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("expected ErrUnknownUser, got %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	db := tableI(t)
	cp := db.Clone()
	if _, err := cp.Move("Alice", geo.Point{X: 100, Y: 100}); err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Lookup("Alice")
	if orig != (geo.Point{X: 1, Y: 1}) {
		t.Error("Clone shares storage with original")
	}
	if cp.Index("Bob") != db.Index("Bob") {
		t.Error("Clone changed indexing")
	}
}

func TestCountInUsersIn(t *testing.T) {
	db := tableI(t)
	// R1 from Figure 1: [0,0,2,3) contains Alice and Bob under half-open
	// semantics covering their integer coordinates.
	r1 := geo.NewRect(0, 0, 2, 3)
	if got := db.CountIn(r1); got != 2 {
		t.Errorf("CountIn(R1) = %d, want 2", got)
	}
	users := db.UsersIn(r1)
	if len(users) != 2 || users[0] != "Alice" || users[1] != "Bob" {
		t.Errorf("UsersIn(R1) = %v", users)
	}
	if got := db.CountIn(geo.NewRect(50, 50, 60, 60)); got != 0 {
		t.Errorf("empty region count = %d", got)
	}
}

func TestBounds(t *testing.T) {
	db := tableI(t)
	b := db.Bounds()
	for _, r := range db.Records() {
		if !b.Contains(r.Loc) {
			t.Errorf("bounds %v excludes %v", b, r.Loc)
		}
	}
	var empty DB
	if !empty.Bounds().Empty() {
		t.Error("empty DB should have empty bounds")
	}
}

func TestSample(t *testing.T) {
	db := tableI(t)
	rng := rand.New(rand.NewSource(7))
	s, err := db.Sample(rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("sample len %d", s.Len())
	}
	for _, r := range s.Records() {
		orig, err := db.Lookup(r.UserID)
		if err != nil || orig != r.Loc {
			t.Errorf("sampled record %v not in master", r)
		}
	}
	if _, err := db.Sample(rng, 10); err == nil {
		t.Error("oversized sample should fail")
	}
}

func TestDiff(t *testing.T) {
	db := tableI(t)
	next := db.Clone()
	if _, err := next.Move("Bob", geo.Point{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := next.Move("Tom", geo.Point{X: 4, Y: 3}); err != nil {
		t.Fatal(err)
	}
	moved, err := db.Diff(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 2 || moved[0] != db.Index("Bob") || moved[1] != db.Index("Tom") {
		t.Errorf("moved = %v", moved)
	}
	short := New(1)
	if _, err := db.Diff(short); err == nil {
		t.Error("size-mismatched diff should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := tableI(t)
	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip len %d", back.Len())
	}
	for _, r := range db.Records() {
		p, err := back.Lookup(r.UserID)
		if err != nil || p != r.Loc {
			t.Errorf("round trip lost %v", r)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"u1,notanumber,3\n",
		"u1,1,notanumber\n",
		"u1,1,2\nu1,3,4\n", // duplicate user
		"u1,1\n",           // wrong field count
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", in)
		}
	}
}

func TestSortedUserIDs(t *testing.T) {
	db := tableI(t)
	ids := db.SortedUserIDs()
	want := []string{"Alice", "Bob", "Carol", "Sam", "Tom"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("SortedUserIDs = %v", ids)
		}
	}
}

// Property: CSV round-trips arbitrary snapshots.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(coords []int32) bool {
		db := New(len(coords))
		for i, c := range coords {
			id := "u" + itoa(i)
			if err := db.Add(id, geo.Point{X: c, Y: -c}); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := db.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil || back.Len() != db.Len() {
			return false
		}
		for _, r := range db.Records() {
			p, err := back.Lookup(r.UserID)
			if err != nil || p != r.Loc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestFromRecordsMatchesNewAdd holds the bulk constructor to the
// incremental one: same records, index, lookups, length and version.
func TestFromRecordsMatchesNewAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 129, 1000} {
		recs := make([]Record, n)
		want := New(0)
		for i := range recs {
			recs[i] = Record{UserID: "u" + itoa(i), Loc: geo.Point{X: rng.Int31n(100), Y: rng.Int31n(100)}}
			if err := want.Add(recs[i].UserID, recs[i].Loc); err != nil {
				t.Fatal(err)
			}
		}
		got, err := FromRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.Version() != want.Version() {
			t.Fatalf("n=%d: len %d version %d, want %d and %d", n, got.Len(), got.Version(), want.Len(), want.Version())
		}
		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Fatalf("n=%d: records differ", n)
		}
		for i, r := range recs {
			if got.Index(r.UserID) != i {
				t.Fatalf("Index(%q) = %d, want %d", r.UserID, got.Index(r.UserID), i)
			}
			if loc, err := got.Lookup(r.UserID); err != nil || loc != r.Loc {
				t.Fatalf("Lookup(%q) = %v, %v", r.UserID, loc, err)
			}
		}
		if got.Index("nobody") != -1 {
			t.Fatal("absent user has an index")
		}
		// The snapshot owns its records: neither the caller's later writes
		// nor its own mutation reach the other.
		if n > 0 {
			recs[0].Loc = geo.Point{X: -1, Y: -1}
			if got.At(0).Loc == recs[0].Loc {
				t.Fatal("snapshot aliases the caller's slice")
			}
			got.MoveAt(n-1, geo.Point{X: -2, Y: -2})
			if recs[n-1].Loc == got.At(n-1).Loc {
				t.Fatal("mutating the snapshot wrote through to the caller's slice")
			}
		}
		if err := got.Add("late", geo.Point{}); err != nil || got.Index("late") != n {
			t.Fatalf("n=%d: Add after FromRecords: index %d, err %v", n, got.Index("late"), err)
		}
	}
}

func TestFromRecordsRejectsDuplicates(t *testing.T) {
	_, err := FromRecords([]Record{{UserID: "a"}, {UserID: "b"}, {UserID: "a"}, {UserID: "b"}})
	if !errors.Is(err, ErrDuplicateUser) || !strings.Contains(err.Error(), `"a"`) || strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("err = %v, want ErrDuplicateUser naming the first repeated id \"a\"", err)
	}
}

// TestFromRecordsBeside holds the deferred constructor to FromRecords on
// both of its paths (the index filled inline at GOMAXPROCS 1, beside the
// caller otherwise): after JoinIndex the snapshot is the one FromRecords
// builds, a copy-on-write view taken before the join shares the filled
// index, and a duplicate is reported by JoinIndex in FromRecords' words.
func TestFromRecordsBeside(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 1000} {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{UserID: "u" + itoa(i), Loc: geo.Point{X: int32(i % 97), Y: int32(i % 89)}}
			}
			want, err := FromRecords(recs)
			if err != nil {
				t.Fatal(err)
			}
			got := FromRecordsBeside(slices.Clone(recs))
			view := got.CloneWithMoves(nil)
			if err := got.JoinIndex(); err != nil {
				t.Fatal(err)
			}
			if got.Len() != n || got.Version() != want.Version() || !reflect.DeepEqual(got.Records(), want.Records()) {
				t.Fatalf("procs=%d n=%d: snapshot differs from FromRecords", procs, n)
			}
			for i, r := range recs {
				if got.Index(r.UserID) != i || view.Index(r.UserID) != i {
					t.Fatalf("procs=%d: Index(%q) = %d, view %d, want %d", procs, r.UserID, got.Index(r.UserID), view.Index(r.UserID), i)
				}
			}
		}
		dup := []Record{{UserID: "a"}, {UserID: "b"}, {UserID: "a"}, {UserID: "b"}}
		_, want := FromRecords(dup)
		if err := FromRecordsBeside(dup).JoinIndex(); err == nil || err.Error() != want.Error() || !errors.Is(err, ErrDuplicateUser) {
			t.Fatalf("procs=%d: JoinIndex = %v, want %v", procs, err, want)
		}
	}
}
