package location

import (
	"fmt"
	"math"

	"policyanon/internal/geo"
)

// Grid is a uniform spatial index over one snapshot, answering containment
// queries (how many / which users fall in a region) without scanning the
// whole database. The attacker's policy-unaware audits and the LBS-side
// tooling use it for large snapshots.
type Grid struct {
	db     *DB
	bounds geo.Rect
	cell   int32
	cols   int32
	rows   int32
	// Record indices grouped by cell, ascending within a cell: cell c
	// holds items[start[c]:start[c+1]]. Two flat arrays, not a slice per
	// cell — a grid is built per published policy version and kept as
	// long as it, so it should cost a few bytes per user.
	start []int32
	items []int32
}

// NewGrid indexes the snapshot. bounds must contain every location; a
// cell side of 0 picks a default targeting a few users per cell.
func NewGrid(db *DB, bounds geo.Rect, cell int32) (*Grid, error) {
	if bounds.Empty() {
		return nil, fmt.Errorf("location: empty grid bounds")
	}
	if cell <= 0 {
		target := db.Len()/4 + 1
		cell = int32(math.Sqrt(float64(bounds.Area()) / float64(target)))
		if cell < 1 {
			cell = 1
		}
	}
	g := &Grid{
		db: db, bounds: bounds, cell: cell,
		cols: int32((bounds.Width() + int64(cell) - 1) / int64(cell)),
		rows: int32((bounds.Height() + int64(cell) - 1) / int64(cell)),
	}
	// Counting sort of the records by cell.
	g.start = make([]int32, int(g.cols)*int(g.rows)+1)
	cellOf := make([]int32, db.Len())
	var outside error
	db.forEach(func(i int, r Record) {
		if !bounds.Contains(r.Loc) {
			if outside == nil {
				outside = fmt.Errorf("location: record %d at %v outside grid bounds %v", i, r.Loc, bounds)
			}
			return
		}
		c := g.cellOf(r.Loc)
		cellOf[i] = int32(c)
		g.start[c+1]++
	})
	if outside != nil {
		return nil, outside
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.items = make([]int32, db.Len())
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, c := range cellOf {
		g.items[next[c]] = int32(i)
		next[c]++
	}
	return g, nil
}

func (g *Grid) cellOf(p geo.Point) int {
	cx := (p.X - g.bounds.MinX) / g.cell
	cy := (p.Y - g.bounds.MinY) / g.cell
	return int(cy)*int(g.cols) + int(cx)
}

// CountInClosed returns the number of users inside the closed rectangle r
// (boundary included), matching the containment semantics of anonymized
// request cloaks (Definition 2).
func (g *Grid) CountInClosed(r geo.Rect) int {
	n := 0
	g.scan(r, func(i int32) {
		if r.ContainsClosed(g.db.At(int(i)).Loc) {
			n++
		}
	})
	return n
}

// UsersInClosed returns the record indices of users inside the closed
// rectangle, in ascending order per cell scan order.
func (g *Grid) UsersInClosed(r geo.Rect) []int32 {
	var out []int32
	g.scan(r, func(i int32) {
		if r.ContainsClosed(g.db.At(int(i)).Loc) {
			out = append(out, i)
		}
	})
	return out
}

// scan visits every record in cells overlapping the closed rectangle.
func (g *Grid) scan(r geo.Rect, visit func(int32)) {
	clipped := r.Intersect(geo.Rect{
		MinX: g.bounds.MinX, MinY: g.bounds.MinY,
		MaxX: g.bounds.MaxX, MaxY: g.bounds.MaxY,
	})
	if clipped.Empty() && !g.bounds.Intersects(geo.NewRect(r.MinX, r.MinY, r.MaxX+1, r.MaxY+1)) {
		return
	}
	x0 := (clampLo(r.MinX, g.bounds.MinX) - g.bounds.MinX) / g.cell
	y0 := (clampLo(r.MinY, g.bounds.MinY) - g.bounds.MinY) / g.cell
	x1 := (clampHi(r.MaxX, g.bounds.MaxX-1) - g.bounds.MinX) / g.cell
	y1 := (clampHi(r.MaxY, g.bounds.MaxY-1) - g.bounds.MinY) / g.cell
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			c := int(cy)*int(g.cols) + int(cx)
			for _, i := range g.items[g.start[c]:g.start[c+1]] {
				visit(i)
			}
		}
	}
}

func clampLo(v, lo int32) int32 {
	if v < lo {
		return lo
	}
	return v
}

func clampHi(v, hi int32) int32 {
	if v > hi {
		return hi
	}
	return v
}
