// Package geo provides the integer planar geometry used throughout the
// anonymizer: points, axis-aligned rectangles (cloaks, quadrants and
// semi-quadrants) and circles (the circular-cloak variant of Theorem 1).
//
// Coordinates are int32 meters in a square map whose side is a power of
// two, which keeps quad-tree splits exact. Areas and distances are int64 /
// float64 so that the cost sums of Section IV never overflow for the map
// sizes used in the paper (up to ~131 km side, 1.75M users).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the 2-dimensional map space of Section II-A.
type Point struct {
	X, Y int32
}

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) int64 {
	dx := int64(p.X) - int64(q.X)
	dy := int64(p.Y) - int64(q.Y)
	return dx*dx + dy*dy
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(float64(p.DistSq(q))) }

// Rect is a half-open axis-aligned rectangle [MinX,MaxX) x [MinY,MaxY).
// Half-open semantics make quadrant splits a partition: every point of the
// parent belongs to exactly one child, so d(m) sums exactly (Definition 7).
type Rect struct {
	MinX, MinY, MaxX, MaxY int32
}

// NewRect returns the rectangle with the given corners. It panics if the
// rectangle is inverted; an empty rectangle (zero width or height) is legal.
func NewRect(minX, minY, maxX, maxY int32) Rect {
	if maxX < minX || maxY < minY {
		panic(fmt.Sprintf("geo: inverted rect (%d,%d,%d,%d)", minX, minY, maxX, maxY))
	}
	return Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// String renders the rectangle as "[minX,minY,maxX,maxY)".
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d,%d,%d)", r.MinX, r.MinY, r.MaxX, r.MaxY)
}

// Width returns MaxX-MinX.
func (r Rect) Width() int64 { return int64(r.MaxX) - int64(r.MinX) }

// Height returns MaxY-MinY.
func (r Rect) Height() int64 { return int64(r.MaxY) - int64(r.MinY) }

// Area returns the area of r in square meters.
func (r Rect) Area() int64 { return r.Width() * r.Height() }

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.MinX >= r.MaxX || r.MinY >= r.MaxY }

// Contains reports whether p lies inside the half-open rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// ContainsClosed reports whether p lies inside r treating the boundary as
// included. Anonymized requests transmit closed regions (Definition 2), so
// masking checks use the closed test while tree bookkeeping uses Contains.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether r fully contains s.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		MinX: max32(r.MinX, s.MinX), MinY: max32(r.MinY, s.MinY),
		MaxX: min32(r.MaxX, s.MaxX), MaxY: min32(r.MaxY, s.MaxY),
	}
	if out.MinX > out.MaxX {
		out.MaxX = out.MinX
	}
	if out.MinY > out.MaxY {
		out.MaxY = out.MinY
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		MinX: min32(r.MinX, s.MinX), MinY: min32(r.MinY, s.MinY),
		MaxX: max32(r.MaxX, s.MaxX), MaxY: max32(r.MaxY, s.MaxY),
	}
}

// ExpandToPoint returns the smallest rectangle containing r and p. Used by
// the minimum-bounding-box baselines.
func (r Rect) ExpandToPoint(p Point) Rect {
	if r.Empty() {
		return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + 1, MaxY: p.Y + 1}
	}
	out := r
	if p.X < out.MinX {
		out.MinX = p.X
	}
	if p.X >= out.MaxX {
		out.MaxX = p.X + 1
	}
	if p.Y < out.MinY {
		out.MinY = p.Y
	}
	if p.Y >= out.MaxY {
		out.MaxY = p.Y + 1
	}
	return out
}

// Center returns the centroid of r (rounded down).
func (r Rect) Center() Point {
	return Point{
		X: int32((int64(r.MinX) + int64(r.MaxX)) / 2),
		Y: int32((int64(r.MinY) + int64(r.MaxY)) / 2),
	}
}

// WestHalf and EastHalf split r vertically into two semi-quadrants, the
// s_W / s_E split of Section V's binary tree.
func (r Rect) WestHalf() Rect {
	return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.Center().X, MaxY: r.MaxY}
}

// EastHalf returns the eastern vertical semi-quadrant of r.
func (r Rect) EastHalf() Rect {
	return Rect{MinX: r.Center().X, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// SouthHalf returns the southern horizontal semi-quadrant of r.
func (r Rect) SouthHalf() Rect {
	return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.Center().Y}
}

// NorthHalf returns the northern horizontal semi-quadrant of r.
func (r Rect) NorthHalf() Rect {
	return Rect{MinX: r.MinX, MinY: r.Center().Y, MaxX: r.MaxX, MaxY: r.MaxY}
}

// Quadrants splits r into its four quad-tree children, indexed SW, SE, NW,
// NE. The quadrants partition r under half-open semantics.
func (r Rect) Quadrants() [4]Rect {
	c := r.Center()
	return [4]Rect{
		{MinX: r.MinX, MinY: r.MinY, MaxX: c.X, MaxY: c.Y}, // SW
		{MinX: c.X, MinY: r.MinY, MaxX: r.MaxX, MaxY: c.Y}, // SE
		{MinX: r.MinX, MinY: c.Y, MaxX: c.X, MaxY: r.MaxY}, // NW
		{MinX: c.X, MinY: c.Y, MaxX: r.MaxX, MaxY: r.MaxY}, // NE
	}
}

// MinDistSqToPoint returns the squared distance from p to the closest point
// of the closed rectangle r (0 when p is inside).
func (r Rect) MinDistSqToPoint(p Point) int64 {
	var dx, dy int64
	switch {
	case p.X < r.MinX:
		dx = int64(r.MinX) - int64(p.X)
	case p.X > r.MaxX:
		dx = int64(p.X) - int64(r.MaxX)
	}
	switch {
	case p.Y < r.MinY:
		dy = int64(r.MinY) - int64(p.Y)
	case p.Y > r.MaxY:
		dy = int64(p.Y) - int64(r.MaxY)
	}
	return dx*dx + dy*dy
}

// MaxDistSqToPoint returns the squared distance from p to the farthest
// point of the closed rectangle r.
func (r Rect) MaxDistSqToPoint(p Point) int64 {
	dx := max64(abs64(int64(p.X)-int64(r.MinX)), abs64(int64(p.X)-int64(r.MaxX)))
	dy := max64(abs64(int64(p.Y)-int64(r.MinY)), abs64(int64(p.Y)-int64(r.MaxY)))
	return dx*dx + dy*dy
}

// Circle is a circular cloak with a center drawn from a fixed set of
// candidate centers (public landmarks, base stations) and free radius, the
// cloak family of Theorem 1 and of the k-reciprocity example in Fig. 6(b).
type Circle struct {
	Center Point
	Radius float64
}

// Contains reports whether p is inside the closed disc.
func (c Circle) Contains(p Point) bool {
	return float64(c.Center.DistSq(p)) <= c.Radius*c.Radius+1e-9
}

// Area returns the area of the disc.
func (c Circle) Area() float64 { return math.Pi * c.Radius * c.Radius }

// String renders the circle as "circle(center,r)".
func (c Circle) String() string {
	return fmt.Sprintf("circle(%s,r=%.1f)", c.Center, c.Radius)
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
