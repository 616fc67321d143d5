package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// bound maps an arbitrary generated float into a numerically safe coordinate
// range so that property tests do not overflow to +Inf when summing.
func bound(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestManhattanBasics(t *testing.T) {
	a, b := Pt(0, 0), Pt(3, 4)
	if got := a.Manhattan(b); got != 7 {
		t.Errorf("Manhattan = %v, want 7", got)
	}
	if got := b.Manhattan(b); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestManhattanProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by float64) bool {
		a, b := Pt(bound(ax), bound(ay)), Pt(bound(bx), bound(by))
		return math.Abs(a.Manhattan(b)-b.Manhattan(a)) < 1e-9
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(bound(ax), bound(ay)), Pt(bound(bx), bound(by)), Pt(bound(cx), bound(cy))
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)+1e-6*(1+a.Manhattan(b)+b.Manhattan(c))
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpAndSegment(t *testing.T) {
	s := Segment{A: Pt(0, 0), B: Pt(10, 20)}
	if got := s.Length(); got != 30 {
		t.Errorf("Length = %v, want 30", got)
	}
	if p := s.PointAtRatio(-0.5); !p.Eq(s.A, 1e-12) {
		t.Errorf("PointAtRatio(-0.5) = %v, want A", p)
	}
	if p := s.PointAtRatio(1.5); !p.Eq(s.B, 1e-12) {
		t.Errorf("PointAtRatio(1.5) = %v, want B", p)
	}
	// Manhattan distance from A to the ratio point should be r*Length.
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := s.PointAtRatio(r)
		if got, want := s.A.Manhattan(p), r*s.Length(); math.Abs(got-want) > 1e-9 {
			t.Errorf("ratio %v: dist = %v, want %v", r, got, want)
		}
	}
}

func TestCentroid(t *testing.T) {
	if c := Centroid(nil); c != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want origin", c)
	}
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if c := Centroid(pts); !c.Eq(Pt(1, 1), 1e-12) {
		t.Errorf("Centroid = %v, want (1,1)", c)
	}
}

// TestEmptyInputGuards pins the empty-input contracts: aggregates over zero
// points must return their zero values rather than letting a naive
// fold-from-±Inf (or a 0/0 mean) leak NaN or ±Inf into downstream geometry —
// the topology matchers call both on possibly-empty unmatched sets.
func TestEmptyInputGuards(t *testing.T) {
	c := Centroid(nil)
	if c != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want zero point", c)
	}
	if math.IsNaN(c.X) || math.IsNaN(c.Y) {
		t.Errorf("Centroid(nil) produced NaN: %v", c)
	}
	for _, bb := range []Rect{BoundingBox(nil), BoundingBox([]Point{})} {
		if bb != (Rect{}) {
			t.Errorf("BoundingBox(empty) = %+v, want zero rect", bb)
		}
		for _, v := range []float64{bb.Lo.X, bb.Lo.Y, bb.Hi.X, bb.Hi.Y, bb.Width(), bb.Height()} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("BoundingBox(empty) propagated NaN/Inf: %+v", bb)
			}
		}
	}
	// Single-point degenerate cases collapse to the point, not to ±Inf.
	if c := Centroid([]Point{Pt(3, 4)}); c != Pt(3, 4) {
		t.Errorf("Centroid of one point = %v, want (3,4)", c)
	}
	if bb := BoundingBox([]Point{Pt(3, 4)}); bb.Lo != Pt(3, 4) || bb.Hi != Pt(3, 4) {
		t.Errorf("BoundingBox of one point = %+v", bb)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(1, 7))
	if r.Lo != Pt(1, 1) || r.Hi != Pt(5, 7) {
		t.Fatalf("NewRect normalised incorrectly: %+v", r)
	}
	if r.Width() != 4 || r.Height() != 6 {
		t.Errorf("dims wrong: w=%v h=%v", r.Width(), r.Height())
	}
	if r.LongerDim() != 6 {
		t.Errorf("LongerDim = %v, want 6", r.LongerDim())
	}
	if !r.Contains(Pt(3, 3)) || r.Contains(Pt(0, 0)) {
		t.Error("Contains incorrect")
	}
	if p := r.Clamp(Pt(100, -3)); !p.Eq(Pt(5, 1), 1e-12) {
		t.Errorf("Clamp = %v", p)
	}
	bb := BoundingBox([]Point{Pt(1, 1), Pt(5, 7), Pt(3, 3)})
	if bb != r {
		t.Errorf("BoundingBox = %+v, want %+v", bb, r)
	}
	e := r.Expand(1)
	if e.Lo != Pt(0, 0) || e.Hi != Pt(6, 8) {
		t.Errorf("Expand = %+v", e)
	}
}

func TestTiltedRoundTrip(t *testing.T) {
	roundTrip := func(x, y float64) bool {
		p := Pt(bound(x), bound(y))
		q := FromTilted(ToTilted(p))
		return p.Eq(q, 1e-9*(1+math.Abs(p.X)+math.Abs(p.Y)))
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanArcPoint(t *testing.T) {
	p := Pt(3, 4)
	a := ArcFromPoint(p)
	if lo, hi := a.Endpoints(); !lo.Eq(p, 1e-12) || !hi.Eq(p, 1e-12) {
		t.Fatalf("endpoints %v, %v; expected the degenerate arc at %v", lo, hi, p)
	}
	if d := a.Distance(Pt(5, 5)); math.Abs(d-3) > 1e-9 {
		t.Errorf("Distance = %v, want 3", d)
	}
	if cp := a.ClosestPoint(Pt(100, 100)); !cp.Eq(p, 1e-9) {
		t.Errorf("ClosestPoint = %v, want %v", cp, p)
	}
}

func TestManhattanArcExpandIntersect(t *testing.T) {
	// Two points 10 apart (Manhattan): their expansions by 4 and 6 must touch,
	// by 3 and 6 must not.
	a := ArcFromPoint(Pt(0, 0))
	b := ArcFromPoint(Pt(10, 0))
	if _, ok := a.Expand(4).Intersect(b.Expand(6)); !ok {
		t.Error("expected intersection for radii 4+6 = distance")
	}
	if _, ok := a.Expand(3).Intersect(b.Expand(6)); ok {
		t.Error("expected no intersection for radii 3+6 < distance")
	}
	inter, ok := a.Expand(6).Intersect(b.Expand(6))
	if !ok {
		t.Fatal("expected intersection")
	}
	// Every point of the intersection must be within the two radii.
	p, q := inter.Endpoints()
	for _, pt := range []Point{p, q, inter.Center()} {
		if d := pt.Manhattan(Pt(0, 0)); d > 6+1e-9 {
			t.Errorf("point %v at distance %v from a, want <= 6", pt, d)
		}
		if d := pt.Manhattan(Pt(10, 0)); d > 6+1e-9 {
			t.Errorf("point %v at distance %v from b, want <= 6", pt, d)
		}
	}
}

func TestArcDistanceProperty(t *testing.T) {
	// Distance between the expansions of two points shrinks by the sum of the
	// radii (clamped at zero).
	f := func(ax, ay, bx, by float64, r1, r2 uint8) bool {
		a, b := Pt(bound(ax), bound(ay)), Pt(bound(bx), bound(by))
		ra, rb := float64(r1), float64(r2)
		d := a.Manhattan(b)
		got := ArcDistance(ArcFromPoint(a).Expand(ra), ArcFromPoint(b).Expand(rb))
		want := d - ra - rb
		if want < 0 {
			want = 0
		}
		return math.Abs(got-want) < 1e-6*(1+d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArcClosestPointWithinArc(t *testing.T) {
	arc := ArcFromEndpoints(Pt(0, 0), Pt(5, 5))
	f := func(x, y float64) bool {
		p := Pt(bound(x), bound(y))
		cp := arc.ClosestPoint(p)
		// The closest point must lie on the arc (distance 0) and achieve the
		// reported distance.
		return arc.Distance(cp) < 1e-6 && math.Abs(p.Manhattan(cp)-arc.Distance(p)) < 1e-6*(1+p.Manhattan(cp))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
