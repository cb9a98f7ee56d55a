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
	// Counting sort of the records by cell, the cell taken once to count
	// and once to place rather than kept per record.
	g.start = make([]int32, int(g.cols)*int(g.rows)+1)
	var outside error
	db.forEach(func(i int, r Record) {
		if !bounds.Contains(r.Loc) {
			if outside == nil {
				outside = fmt.Errorf("location: record %d at %v outside grid bounds %v", i, r.Loc, bounds)
			}
			return
		}
		g.start[g.cellOf(r.Loc)+1]++
	})
	if outside != nil {
		return nil, outside
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.items = make([]int32, db.Len())
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	db.forEach(func(i int, r Record) {
		c := g.cellOf(r.Loc)
		g.items[next[c]] = int32(i)
		next[c]++
	})
	return g, nil
}

func (g *Grid) cellOf(p geo.Point) int {
	cx := (int64(p.X) - int64(g.bounds.MinX)) / int64(g.cell)
	cy := (int64(p.Y) - int64(g.bounds.MinY)) / int64(g.cell)
	return int(cy)*int(g.cols) + int(cx)
}

// CountInClosed returns the number of users inside the closed rectangle r
// (boundary included), matching the containment semantics of anonymized
// request cloaks (Definition 2). The cells strictly inside r's cell range
// lie wholly inside r and are counted whole; only the cells on the
// range's border are tested user by user.
func (g *Grid) CountInClosed(r geo.Rect) int {
	x0, y0, x1, y1, ok := g.cells(r)
	if !ok {
		return 0
	}
	n := 0
	for cy := y0; cy <= y1; cy++ {
		row := cy * int(g.cols)
		lo, hi := g.start[row+x0], g.start[row+x1+1]
		if cy > y0 && cy < y1 && x1-x0 > 1 {
			in0, in1 := g.start[row+x0+1], g.start[row+x1]
			n += int(in1-in0) + g.countClosed(g.items[lo:in0], r) + g.countClosed(g.items[in1:hi], r)
			continue
		}
		n += g.countClosed(g.items[lo:hi], r)
	}
	return n
}

// countClosed counts the records of items inside the closed rectangle r.
func (g *Grid) countClosed(items []int32, r geo.Rect) int {
	n := 0
	for _, i := range items {
		if r.ContainsClosed(g.db.At(int(i)).Loc) {
			n++
		}
	}
	return n
}

// UsersInClosed returns the record indices of users inside the closed
// rectangle, in ascending order per cell scan order.
func (g *Grid) UsersInClosed(r geo.Rect) []int32 {
	x0, y0, x1, y1, ok := g.cells(r)
	if !ok {
		return nil
	}
	var out []int32
	for cy := y0; cy <= y1; cy++ {
		row := cy * int(g.cols)
		for _, i := range g.items[g.start[row+x0]:g.start[row+x1+1]] {
			if r.ContainsClosed(g.db.At(int(i)).Loc) {
				out = append(out, i)
			}
		}
	}
	return out
}

// cells returns the columns x0..x1 and rows y0..y1 of the cells the closed
// rectangle r overlaps, or ok false when it overlaps none: it misses the
// bounds or is inverted.
func (g *Grid) cells(r geo.Rect) (x0, y0, x1, y1 int, ok bool) {
	b := g.bounds
	if r.MinX > r.MaxX || r.MinY > r.MaxY ||
		r.MaxX < b.MinX || r.MinX >= b.MaxX || r.MaxY < b.MinY || r.MinY >= b.MaxY {
		return 0, 0, 0, 0, false
	}
	c := int64(g.cell)
	x0 = int((int64(max(r.MinX, b.MinX)) - int64(b.MinX)) / c)
	y0 = int((int64(max(r.MinY, b.MinY)) - int64(b.MinY)) / c)
	x1 = int((int64(min(r.MaxX, b.MaxX-1)) - int64(b.MinX)) / c)
	y1 = int((int64(min(r.MaxY, b.MaxY-1)) - int64(b.MinY)) / c)
	return x0, y0, x1, y1, true
}
