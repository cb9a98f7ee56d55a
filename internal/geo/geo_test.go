package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectContainsHalfOpen(t *testing.T) {
	r := NewRect(0, 0, 4, 4)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{3, 3}, true},
		{Point{4, 4}, false},
		{Point{4, 0}, false},
		{Point{0, 4}, false},
		{Point{-1, 2}, false},
		{Point{2, -1}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !r.ContainsClosed(Point{4, 4}) {
		t.Errorf("ContainsClosed should include the boundary corner")
	}
}

func TestRectAreaWidthHeight(t *testing.T) {
	r := NewRect(-2, -3, 5, 7)
	if r.Width() != 7 || r.Height() != 10 || r.Area() != 70 {
		t.Fatalf("got w=%d h=%d a=%d", r.Width(), r.Height(), r.Area())
	}
	if NewRect(1, 1, 1, 5).Area() != 0 {
		t.Fatal("degenerate rect must have zero area")
	}
	if !NewRect(1, 1, 1, 5).Empty() {
		t.Fatal("zero-width rect must be Empty")
	}
}

func TestNewRectPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted rect")
		}
	}()
	NewRect(5, 0, 1, 4)
}

func TestQuadrantsPartition(t *testing.T) {
	r := NewRect(0, 0, 8, 8)
	qs := r.Quadrants()
	var total int64
	for _, q := range qs {
		total += q.Area()
		if !r.ContainsRect(q) {
			t.Errorf("quadrant %v escapes parent %v", q, r)
		}
	}
	if total != r.Area() {
		t.Errorf("quadrant areas sum to %d, want %d", total, r.Area())
	}
	// Every interior point belongs to exactly one quadrant.
	for x := int32(0); x < 8; x++ {
		for y := int32(0); y < 8; y++ {
			n := 0
			for _, q := range qs {
				if q.Contains(Point{x, y}) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("point (%d,%d) in %d quadrants", x, y, n)
			}
		}
	}
}

func TestSemiQuadrantSplits(t *testing.T) {
	r := NewRect(0, 0, 8, 4)
	w, e := r.WestHalf(), r.EastHalf()
	if w.Area()+e.Area() != r.Area() {
		t.Errorf("vertical halves don't partition: %d + %d != %d", w.Area(), e.Area(), r.Area())
	}
	if w.Intersects(e) {
		t.Errorf("vertical halves overlap: %v %v", w, e)
	}
	s, n := r.SouthHalf(), r.NorthHalf()
	if s.Area()+n.Area() != r.Area() {
		t.Errorf("horizontal halves don't partition")
	}
	if s.Intersects(n) {
		t.Errorf("horizontal halves overlap")
	}
	// A square's west half split horizontally yields its NW and SW quadrants.
	sq := NewRect(0, 0, 8, 8)
	if got := sq.WestHalf().SouthHalf(); got != sq.Quadrants()[0] {
		t.Errorf("west+south = %v, want SW quadrant %v", got, sq.Quadrants()[0])
	}
	if got := sq.EastHalf().NorthHalf(); got != sq.Quadrants()[3] {
		t.Errorf("east+north = %v, want NE quadrant %v", got, sq.Quadrants()[3])
	}
}

func TestIntersectUnion(t *testing.T) {
	a := NewRect(0, 0, 4, 4)
	b := NewRect(2, 2, 6, 6)
	if got := a.Intersect(b); got != NewRect(2, 2, 4, 4) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != NewRect(0, 0, 6, 6) {
		t.Errorf("Union = %v", got)
	}
	c := NewRect(10, 10, 12, 12)
	if !a.Intersect(c).Empty() {
		t.Errorf("disjoint intersect should be empty, got %v", a.Intersect(c))
	}
	if a.Intersects(c) {
		t.Errorf("disjoint rects must not Intersects")
	}
	var zero Rect
	if got := zero.Union(a); got != a {
		t.Errorf("empty union identity broken: %v", got)
	}
}

func TestExpandToPoint(t *testing.T) {
	var r Rect
	r = r.ExpandToPoint(Point{3, 3})
	if !r.Contains(Point{3, 3}) {
		t.Fatal("expanded rect must contain seed point")
	}
	r = r.ExpandToPoint(Point{7, 1})
	for _, p := range []Point{{3, 3}, {7, 1}} {
		if !r.Contains(p) {
			t.Errorf("rect %v lost point %v", r, p)
		}
	}
}

func TestDistances(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if p.DistSq(q) != 25 {
		t.Errorf("DistSq = %d", p.DistSq(q))
	}
	if p.Dist(q) != 5 {
		t.Errorf("Dist = %v", p.Dist(q))
	}
	r := NewRect(10, 10, 20, 20)
	if d := r.MinDistSqToPoint(Point{10, 25}); d != 25 {
		t.Errorf("MinDistSq above = %d, want 25", d)
	}
	if d := r.MinDistSqToPoint(Point{15, 15}); d != 0 {
		t.Errorf("MinDistSq inside = %d, want 0", d)
	}
	if d := r.MaxDistSqToPoint(Point{10, 10}); d != 200 {
		t.Errorf("MaxDistSq corner = %d, want 200", d)
	}
}

func TestCircle(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 5}
	if !c.Contains(Point{3, 4}) {
		t.Error("boundary point should be contained (closed disc)")
	}
	if c.Contains(Point{4, 4}) {
		t.Error("exterior point contained")
	}
	if math.Abs(c.Area()-math.Pi*25) > 1e-9 {
		t.Errorf("Area = %v", c.Area())
	}
}

// Property: quadrants always partition area, and every contained point falls
// in exactly one quadrant.
func TestQuadrantPartitionProperty(t *testing.T) {
	f := func(ox, oy int16, sizeExp uint8, px, py uint16) bool {
		side := int32(1) << (2 + sizeExp%10) // 4..2048
		r := NewRect(int32(ox), int32(oy), int32(ox)+side, int32(oy)+side)
		p := Point{int32(ox) + int32(px)%side, int32(oy) + int32(py)%side}
		qs := r.Quadrants()
		var area int64
		n := 0
		for _, q := range qs {
			area += q.Area()
			if q.Contains(p) {
				n++
			}
		}
		return area == r.Area() && n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Union contains both operands; Intersect is contained in both.
func TestUnionIntersectProperty(t *testing.T) {
	f := func(ax, ay, bx, by int16, aw, ah, bw, bh uint8) bool {
		a := NewRect(int32(ax), int32(ay), int32(ax)+int32(aw)+1, int32(ay)+int32(ah)+1)
		b := NewRect(int32(bx), int32(by), int32(bx)+int32(bw)+1, int32(by)+int32(bh)+1)
		u := a.Union(b)
		i := a.Intersect(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		if i.Empty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MinDistSq <= MaxDistSq, and MinDistSq is 0 iff the point is in
// the closed rectangle.
func TestRectDistanceProperty(t *testing.T) {
	f := func(px, py, rx, ry int16, w, h uint8) bool {
		r := NewRect(int32(rx), int32(ry), int32(rx)+int32(w)+1, int32(ry)+int32(h)+1)
		p := Point{int32(px), int32(py)}
		lo, hi := r.MinDistSqToPoint(p), r.MaxDistSqToPoint(p)
		if lo > hi {
			return false
		}
		return (lo == 0) == r.ContainsClosed(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
