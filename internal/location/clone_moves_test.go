package location

import (
	"math/rand"
	"strconv"
	"testing"

	"policyanon/internal/geo"
)

func cowDB(t testing.TB, n int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	db := New(n)
	for i := 0; i < n; i++ {
		if err := db.Add("u"+strconv.Itoa(i), geo.Point{X: rng.Int31n(1 << 12), Y: rng.Int31n(1 << 12)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestCloneWithMovesParity: the O(moves) clone must be indistinguishable
// (contents and version) from a deep Clone followed by the same MoveAt
// sequence.
func TestCloneWithMovesParity(t *testing.T) {
	// 1100 records: three pages, so boundary indices cross pages.
	db := cowDB(t, 1100)
	moves := map[int]geo.Point{
		0:    {X: 1, Y: 1},
		511:  {X: 2, Y: 2},
		512:  {X: 3, Y: 3},
		1023: {X: 4, Y: 4},
		1024: {X: 5, Y: 5},
		1099: {X: 6, Y: 6},
	}
	want := db.Clone()
	for i, to := range moves {
		want.MoveAt(i, to)
	}
	got := db.CloneWithMoves(moves)
	if got.Len() != want.Len() {
		t.Fatalf("len %d, want %d", got.Len(), want.Len())
	}
	if got.Version() != want.Version() {
		t.Fatalf("version %d, want %d (parent %d + %d moves)", got.Version(), want.Version(), db.Version(), len(moves))
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("record %d = %+v, want %+v", i, got.At(i), want.At(i))
		}
	}
	// The shared index still resolves users on both sides.
	for _, u := range []string{"u0", "u512", "u1099"} {
		g, err := got.Lookup(u)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := want.Lookup(u)
		if g != w {
			t.Fatalf("Lookup(%s) = %v, want %v", u, g, w)
		}
	}
}

func TestCloneWithMovesChain(t *testing.T) {
	db := cowDB(t, 1100)
	oracle := db.Clone()
	cur := db
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 10; round++ {
		moves := make(map[int]geo.Point, 8)
		for len(moves) < 8 {
			moves[rng.Intn(1100)] = geo.Point{X: rng.Int31n(1 << 12), Y: rng.Int31n(1 << 12)}
		}
		for i, to := range moves {
			oracle.MoveAt(i, to)
		}
		cur = cur.CloneWithMoves(moves)
		if cur.Version() != oracle.Version() {
			t.Fatalf("round %d: version %d, want %d", round, cur.Version(), oracle.Version())
		}
	}
	for i := 0; i < 1100; i++ {
		if cur.At(i) != oracle.At(i) {
			t.Fatalf("record %d = %+v, want %+v", i, cur.At(i), oracle.At(i))
		}
	}
	// Records() on the paged chain tip returns a fresh copy each call:
	// mutating one materialization must not leak into the next.
	r1 := cur.Records()
	r1[0].Loc = geo.Point{X: -99, Y: -99}
	if cur.Records()[0].Loc == (geo.Point{X: -99, Y: -99}) {
		t.Fatal("Records() on a paged snapshot exposed shared storage")
	}
}

// TestCloneWithMovesIsolation: in-place mutation of either side never
// bleeds into the other.
func TestCloneWithMovesIsolation(t *testing.T) {
	parent := cowDB(t, 1100)
	p600 := parent.At(600).Loc
	child := parent.CloneWithMoves(map[int]geo.Point{600: {X: 7, Y: 7}})

	// Mutating the child (copies page 0) leaves the parent alone.
	child.MoveAt(0, geo.Point{X: 8, Y: 8})
	if got := parent.At(0).Loc; got == (geo.Point{X: 8, Y: 8}) {
		t.Fatal("child MoveAt wrote through to parent")
	}
	if got := parent.At(600).Loc; got != p600 {
		t.Fatalf("parent record 600 = %v, want %v", got, p600)
	}
	// Mutating the parent (copies page 4) leaves the child alone.
	parent.MoveAt(600, geo.Point{X: 9, Y: 9})
	if got := child.At(600).Loc; got != (geo.Point{X: 7, Y: 7}) {
		t.Fatalf("parent MoveAt visible in child: %v", got)
	}

	// Add on a derived snapshot un-shares the user index: the parent must
	// not learn about the new user.
	fresh := cowDB(t, 700)
	derived := fresh.CloneWithMoves(map[int]geo.Point{1: {X: 1, Y: 1}})
	if err := derived.Add("newcomer", geo.Point{X: 5, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := derived.Lookup("newcomer"); err != nil {
		t.Fatalf("derived lost its own user: %v", err)
	}
	if _, err := fresh.Lookup("newcomer"); err == nil {
		t.Fatal("Add on derived snapshot leaked into the shared index")
	}
	if fresh.Len() != 700 || derived.Len() != 701 {
		t.Fatalf("lens %d/%d, want 700/701", fresh.Len(), derived.Len())
	}
}
