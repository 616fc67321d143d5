// Package geom provides the planar Manhattan geometry primitives used by the
// clock tree synthesis algorithms: points, rectilinear distances, bounding
// boxes, line segments and Manhattan arcs (segments of slope ±1, the loci of
// equidistant points under the L1 metric).
//
// All coordinates are in micrometres unless stated otherwise.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the placement plane, in micrometres.
type Point struct {
	X, Y float64
}

// Pt is a convenience constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Manhattan returns the L1 (rectilinear) distance between p and q.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Lerp returns the point at parameter t on the straight segment from p to q,
// with t=0 yielding p and t=1 yielding q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q coincide within tolerance eps.
func (p Point) Eq(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// Centroid returns the arithmetic mean of the given points.  It returns the
// origin for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	c.X /= float64(len(pts))
	c.Y /= float64(len(pts))
	return c
}

// Rect is an axis-aligned rectangle.  Lo holds the minimum corner and Hi the
// maximum corner.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Lo: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Hi: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// BoundingBox returns the smallest rectangle containing all points.  It
// returns the zero rectangle for an empty slice.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		r = r.Include(p)
	}
	return r
}

// Include returns the rectangle grown to contain p.
func (r Rect) Include(p Point) Rect {
	if p.X < r.Lo.X {
		r.Lo.X = p.X
	}
	if p.Y < r.Lo.Y {
		r.Lo.Y = p.Y
	}
	if p.X > r.Hi.X {
		r.Hi.X = p.X
	}
	if p.Y > r.Hi.Y {
		r.Hi.Y = p.Y
	}
	return r
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// LongerDim returns the larger of the rectangle's width and height.
func (r Rect) LongerDim() float64 { return math.Max(r.Width(), r.Height()) }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// Expand returns the rectangle grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	return Rect{
		Lo: Point{r.Lo.X - margin, r.Lo.Y - margin},
		Hi: Point{r.Hi.X + margin, r.Hi.Y + margin},
	}
}

// Clamp returns p moved to the closest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Lo.X), r.Hi.X),
		Y: math.Min(math.Max(p.Y, r.Lo.Y), r.Hi.Y),
	}
}

// Segment is a straight line segment between two points.  Clock tree routing
// embeds wires as sequences of segments; lengths are always measured with the
// Manhattan metric because every segment is ultimately realised rectilinearly.
type Segment struct {
	A, B Point
}

// Length returns the Manhattan length of the segment.
func (s Segment) Length() float64 { return s.A.Manhattan(s.B) }

// PointAtRatio returns the point M on the segment such that the Manhattan
// distance |A,M| / |A,B| equals r.  For straight segments this coincides with
// linear interpolation; r is clamped to [0, 1].
func (s Segment) PointAtRatio(r float64) Point {
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	return s.A.Lerp(s.B, r)
}
