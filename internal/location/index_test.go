package location

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"policyanon/internal/geo"
)

func randIndexDB(t *testing.T, rng *rand.Rand, n int, side int32) *DB {
	t.Helper()
	db := New(n)
	for i := 0; i < n; i++ {
		if err := db.Add("g"+itoa(i), geo.Point{X: rng.Int31n(side), Y: rng.Int31n(side)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// bruteCountClosed is the linear-scan oracle.
func bruteCountClosed(db *DB, r geo.Rect) int {
	n := 0
	for _, rec := range db.Records() {
		if r.ContainsClosed(rec.Loc) {
			n++
		}
	}
	return n
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const side = 1024
	db := randIndexDB(t, rng, 2000, side)
	g, err := NewGrid(db, geo.NewRect(0, 0, side, side), 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		x, y := rng.Int31n(side), rng.Int31n(side)
		w, h := rng.Int31n(side/2), rng.Int31n(side/2)
		r := geo.NewRect(x, y, min32(x+w, side), min32(y+h, side))
		want := bruteCountClosed(db, r)
		if got := g.CountInClosed(r); got != want {
			t.Fatalf("CountInClosed(%v) = %d, want %d", r, got, want)
		}
		users := g.UsersInClosed(r)
		if len(users) != want {
			t.Fatalf("UsersInClosed(%v) returned %d, want %d", r, len(users), want)
		}
		for _, i := range users {
			if !r.ContainsClosed(db.At(int(i)).Loc) {
				t.Fatalf("user %d outside %v", i, r)
			}
		}
	}
}

func TestGridBoundaryRects(t *testing.T) {
	db := New(3)
	for i, p := range []geo.Point{{X: 0, Y: 0}, {X: 63, Y: 63}, {X: 31, Y: 31}} {
		if err := db.Add("b"+itoa(i), p); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewGrid(db, geo.NewRect(0, 0, 64, 64), 16)
	if err != nil {
		t.Fatal(err)
	}
	// The full map (closed) covers everyone.
	if got := g.CountInClosed(geo.NewRect(0, 0, 64, 64)); got != 3 {
		t.Fatalf("full map count = %d", got)
	}
	// A rect whose closed boundary touches a corner point.
	if got := g.CountInClosed(geo.NewRect(63, 63, 64, 64)); got != 1 {
		t.Fatalf("corner count = %d", got)
	}
	// A rect entirely outside counts nothing (and must not panic).
	if got := g.CountInClosed(geo.NewRect(100, 100, 120, 120)); got != 0 {
		t.Fatalf("outside count = %d", got)
	}
}

func TestGridValidation(t *testing.T) {
	db := New(1)
	if err := db.Add("x", geo.Point{X: 99, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewGrid(db, geo.NewRect(0, 0, 64, 64), 8); err == nil {
		t.Fatal("out-of-bounds record accepted")
	}
	if _, err := NewGrid(db, geo.Rect{}, 8); err == nil {
		t.Fatal("empty bounds accepted")
	}
}

// Property: grid counts equal brute force on random rects and cell sizes.
func TestGridProperty(t *testing.T) {
	f := func(seed int64, cell uint8, rx, ry, rw, rh uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := New(50)
		for i := 0; i < 50; i++ {
			if err := db.Add("p"+itoa(i), geo.Point{X: rng.Int31n(256), Y: rng.Int31n(256)}); err != nil {
				return false
			}
		}
		g, err := NewGrid(db, geo.NewRect(0, 0, 256, 256), int32(cell%32)+1)
		if err != nil {
			return false
		}
		r := geo.NewRect(int32(rx), int32(ry), int32(rx)+int32(rw)+1, int32(ry)+int32(rh)+1)
		return g.CountInClosed(r) == bruteCountClosed(db, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// TestGridMatchesScanOnEdges holds CountInClosed and UsersInClosed to the
// Definition 5 scan of the snapshot on random rectangles drawn to hit the
// grid's edges: sides on cell boundaries and one off them, rectangles
// reaching past the bounds on any side or lying wholly outside, lines,
// points and inverted rectangles, over bounds away from the origin and
// cell sides from 1 to wider than the map.
func TestGridMatchesScanOnEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		minX, minY := rng.Int31n(2000)-1000, rng.Int31n(2000)-1000
		w, h := 1+rng.Int31n(300), 1+rng.Int31n(300)
		bounds := geo.NewRect(minX, minY, minX+w, minY+h)
		db := New(0)
		for i := 0; i < rng.Intn(400); i++ {
			p := geo.Point{X: minX + rng.Int31n(w), Y: minY + rng.Int31n(h)}
			if rng.Intn(5) == 0 { // on the far edges
				p.X = bounds.MaxX - 1
			}
			if err := db.Add("e"+itoa(i), p); err != nil {
				t.Fatal(err)
			}
		}
		cell := []int32{0, 1, 7, 16, 1000}[rng.Intn(5)]
		g, err := NewGrid(db, bounds, cell)
		if err != nil {
			t.Fatal(err)
		}
		// coord draws a coordinate near a cell boundary, a bound, or
		// anywhere, on the axis [lo, lo+span).
		coord := func(lo, span int32) int32 {
			switch rng.Intn(4) {
			case 0: // a cell boundary, or one off it
				return lo + g.cell*rng.Int31n(span/g.cell+2) + rng.Int31n(3) - 1
			case 1: // a bound, or one off it
				return []int32{lo, lo + span}[rng.Intn(2)] + rng.Int31n(3) - 1
			case 2: // outside
				return lo - 50 + rng.Int31n(span+100)
			}
			return lo + rng.Int31n(span)
		}
		for q := 0; q < 200; q++ {
			r := geo.Rect{MinX: coord(minX, w), MinY: coord(minY, h)}
			r.MaxX, r.MaxY = coord(minX, w), coord(minY, h)
			switch rng.Intn(6) {
			case 0: // a vertical line
				r.MaxX = r.MinX
			case 1: // a point
				r.MaxX, r.MaxY = r.MinX, r.MinY
			}
			want := bruteCountClosed(db, r)
			if got := g.CountInClosed(r); got != want {
				t.Fatalf("bounds %v cell %d: CountInClosed(%v) = %d, want %d", bounds, g.cell, r, got, want)
			}
			requireUsers(t, db, g, r)
		}
	}
}

// requireUsers fails unless UsersInClosed(r) lists exactly the records
// inside r, each once.
func requireUsers(t *testing.T, db *DB, g *Grid, r geo.Rect) {
	t.Helper()
	var want []int32
	for i, rec := range db.Records() {
		if r.ContainsClosed(rec.Loc) {
			want = append(want, int32(i))
		}
	}
	got := g.UsersInClosed(r)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("UsersInClosed(%v) = %v, want %v", r, got, want)
	}
}
