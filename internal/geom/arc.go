package geom

import "math"

// TiltedPoint is a point expressed in the 45°-rotated coordinate system
// (u = x+y, v = x-y).  Manhattan balls become axis-aligned squares in this
// system, which makes merge-segment (Manhattan arc) computations simple
// interval intersections.
type TiltedPoint struct {
	U, V float64
}

// ToTilted converts a point to the tilted coordinate system.
func ToTilted(p Point) TiltedPoint { return TiltedPoint{U: p.X + p.Y, V: p.X - p.Y} }

// FromTilted converts a tilted point back to the ordinary coordinate system.
func FromTilted(t TiltedPoint) Point { return Point{X: (t.U + t.V) / 2, Y: (t.U - t.V) / 2} }

// ManhattanArc is a (possibly degenerate) segment of slope +1 or -1 in the
// ordinary coordinate system — the shape of a deferred-merge-embedding merge
// segment.  In tilted coordinates it is an axis-aligned segment, which is how
// it is stored: either U is fixed and V spans [VLo, VHi], or V is fixed and U
// spans [ULo, UHi].  A single point is represented with both intervals
// degenerate.
type ManhattanArc struct {
	ULo, UHi float64
	VLo, VHi float64
}

// ArcFromPoint returns the degenerate arc consisting of a single point.
func ArcFromPoint(p Point) ManhattanArc {
	t := ToTilted(p)
	return ManhattanArc{ULo: t.U, UHi: t.U, VLo: t.V, VHi: t.V}
}

// ArcFromEndpoints returns the arc spanning the two points, which must lie on
// a common line of slope ±1 (within numerical tolerance); otherwise the arc
// spanning their tilted bounding box is returned, which is the standard
// conservative fallback used by DME implementations.
func ArcFromEndpoints(a, b Point) ManhattanArc {
	ta, tb := ToTilted(a), ToTilted(b)
	return ManhattanArc{
		ULo: math.Min(ta.U, tb.U), UHi: math.Max(ta.U, tb.U),
		VLo: math.Min(ta.V, tb.V), VHi: math.Max(ta.V, tb.V),
	}
}

// Endpoints returns the two extreme points of the arc in ordinary
// coordinates.  For a degenerate arc both returned points are equal.
func (a ManhattanArc) Endpoints() (Point, Point) {
	p := FromTilted(TiltedPoint{U: a.ULo, V: a.VLo})
	q := FromTilted(TiltedPoint{U: a.UHi, V: a.VHi})
	return p, q
}

// Center returns the midpoint of the arc in ordinary coordinates.
func (a ManhattanArc) Center() Point {
	return FromTilted(TiltedPoint{U: (a.ULo + a.UHi) / 2, V: (a.VLo + a.VHi) / 2})
}

// Distance returns the minimum Manhattan distance from p to any point of the
// arc.  In tilted coordinates the Manhattan distance between two points is
// max(|Δu|, |Δv|), so the distance to an axis-aligned box is the Chebyshev
// distance to the box.
func (a ManhattanArc) Distance(p Point) float64 {
	t := ToTilted(p)
	du := intervalDist(t.U, a.ULo, a.UHi)
	dv := intervalDist(t.V, a.VLo, a.VHi)
	return math.Max(du, dv)
}

// ArcDistance returns the minimum Manhattan distance between any point of a
// and any point of b.
func ArcDistance(a, b ManhattanArc) float64 {
	du := intervalGap(a.ULo, a.UHi, b.ULo, b.UHi)
	dv := intervalGap(a.VLo, a.VHi, b.VLo, b.VHi)
	return math.Max(du, dv)
}

// ClosestPoint returns the point of the arc closest (in Manhattan distance)
// to p.
func (a ManhattanArc) ClosestPoint(p Point) Point {
	t := ToTilted(p)
	u := clamp(t.U, a.ULo, a.UHi)
	v := clamp(t.V, a.VLo, a.VHi)
	return FromTilted(TiltedPoint{U: u, V: v})
}

// Expand returns the Minkowski expansion of the arc by Manhattan radius r:
// the set of points within Manhattan distance r of the arc, represented as a
// tilted-coordinate box (a "tilted rectangle region" in DME terminology).
func (a ManhattanArc) Expand(r float64) ManhattanArc {
	return ManhattanArc{ULo: a.ULo - r, UHi: a.UHi + r, VLo: a.VLo - r, VHi: a.VHi + r}
}

// Intersect returns the intersection of two tilted boxes and whether it is
// non-empty.
func (a ManhattanArc) Intersect(b ManhattanArc) (ManhattanArc, bool) {
	out := ManhattanArc{
		ULo: math.Max(a.ULo, b.ULo), UHi: math.Min(a.UHi, b.UHi),
		VLo: math.Max(a.VLo, b.VLo), VHi: math.Min(a.VHi, b.VHi),
	}
	if out.ULo > out.UHi || out.VLo > out.VHi {
		return ManhattanArc{}, false
	}
	return out, true
}

func intervalDist(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}

func intervalGap(alo, ahi, blo, bhi float64) float64 {
	if ahi < blo {
		return blo - ahi
	}
	if bhi < alo {
		return alo - bhi
	}
	return 0
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
