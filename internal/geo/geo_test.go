package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEq(got, tt.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.DistSq(tt.q); !almostEq(got, tt.want*tt.want) {
				t.Errorf("DistSq(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain to a realistic coordinate range; astronomic inputs
		// overflow to Inf where Inf-Inf is NaN.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		return almostEq(a.Dist(b), b.Dist(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	mid := a.Lerp(b, 0.5)
	if !almostEq(mid.X, 5) || !almostEq(mid.Y, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5, 10)", mid)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Len(); !almostEq(got, 5) {
		t.Errorf("Len = %v, want 5", got)
	}
	n := v.Norm()
	if !almostEq(n.Len(), 1) {
		t.Errorf("Norm().Len() = %v, want 1", n.Len())
	}
	if z := (Vector{}).Norm(); z != (Vector{}) {
		t.Errorf("zero Norm = %v, want zero", z)
	}
	if got := v.Dot(Vector{1, 0}); !almostEq(got, 3) {
		t.Errorf("Dot = %v, want 3", got)
	}
	if got := v.Scale(2); got != (Vector{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestHeading(t *testing.T) {
	tests := []struct {
		v    Vector
		want float64
	}{
		{Vector{1, 0}, 0},
		{Vector{0, 1}, math.Pi / 2},
		{Vector{-1, 0}, math.Pi},
		{Vector{0, -1}, 3 * math.Pi / 2},
	}
	for _, tt := range tests {
		if got := tt.v.Heading(); !almostEq(got, tt.want) {
			t.Errorf("Heading(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestHeadingVectorRoundTrip(t *testing.T) {
	f := func(h float64) bool {
		h = math.Mod(math.Abs(h), 2*math.Pi)
		v := HeadingVector(h)
		return AngleDiff(v.Heading(), h) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, math.Pi, math.Pi},
		{0.1, 2*math.Pi - 0.1, 0.2},
		{math.Pi / 2, math.Pi, math.Pi / 2},
	}
	for _, tt := range tests {
		if got := AngleDiff(tt.a, tt.b); !almostEq(got, tt.want) {
			t.Errorf("AngleDiff(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// modAngleDiff is AngleDiff as it was first written, with Mod on every
// call: AngleDiff must return its bits.
func modAngleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// sameBits reports whether x and y are one float64, any NaN matching any
// other.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

func TestAngleDiffBounds(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 1000) // huge angles lose all precision in Mod
		b = math.Mod(b, 1000)
		d := AngleDiff(a, b)
		return d >= 0 && d <= math.Pi+1e-9 && sameBits(d, modAngleDiff(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	special := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi,
		math.Pi / 2, math.Nextafter(2*math.Pi, 0), math.Nextafter(2*math.Pi, 7), 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), 5e-324}
	for _, a := range special {
		for _, b := range special {
			if got, want := AngleDiff(a, b), modAngleDiff(a, b); !sameBits(got, want) {
				t.Errorf("AngleDiff(%v, %v) = %v, the Mod form gives %v", a, b, got, want)
			}
		}
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 0})
	if r.Min != (Point{0, 0}) || r.Max != (Point{10, 20}) {
		t.Fatalf("NewRect normalized wrong: %+v", r)
	}
	if !r.Contains(Point{5, 5}) || r.Contains(Point{11, 5}) {
		t.Error("Contains wrong")
	}
	if !r.Contains(r.Min) || !r.Contains(r.Max) {
		t.Error("Contains should include edges")
	}
	if r.Width() != 10 || r.Height() != 20 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if c := r.Center(); c != (Point{5, 10}) {
		t.Errorf("Center = %v", c)
	}
	if p := r.Clamp(Point{-5, 30}); p != (Point{0, 20}) {
		t.Errorf("Clamp = %v", p)
	}
}

func TestSegmentDist(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},  // above the middle
		{Point{-3, 4}, 5}, // before start
		{Point{13, 4}, 5}, // past end
		{Point{5, 0}, 0},  // on the segment
		{Point{0, 0}, 0},  // at an endpoint
	}
	for _, tt := range tests {
		if got := SegmentDist(tt.p, a, b); !almostEq(got, tt.want) {
			t.Errorf("SegmentDist(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Degenerate segment.
	if got := SegmentDist(Point{3, 4}, a, a); !almostEq(got, 5) {
		t.Errorf("degenerate SegmentDist = %v, want 5", got)
	}
}

func TestProjectOnSegment(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 0}
	if got := ProjectOnSegment(Point{5, 7}, a, b); !almostEq(got, 0.5) {
		t.Errorf("t = %v, want 0.5", got)
	}
	if got := ProjectOnSegment(Point{-5, 0}, a, b); got != 0 {
		t.Errorf("t = %v, want 0 (clamped)", got)
	}
	if got := ProjectOnSegment(Point{50, 0}, a, b); got != 1 {
		t.Errorf("t = %v, want 1 (clamped)", got)
	}
	if got := ProjectOnSegment(Point{1, 1}, a, a); got != 0 {
		t.Errorf("degenerate t = %v, want 0", got)
	}
}
