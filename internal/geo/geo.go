// Package geo provides the 2-D geometric primitives used throughout the
// vehicular-cloud simulator: points, vectors, headings, bounding boxes and
// distance computations. All coordinates are in meters on a flat plane,
// which is adequate for the city-scale road networks the simulator models.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in meters on the simulation plane.
type Point struct {
	X, Y float64
}

// Vector is a displacement or velocity in the plane.
type Vector struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// DistSq returns the squared Euclidean distance between p and q. It avoids
// the square root for hot-path comparisons such as range queries.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vector) Dot(w Vector) float64 { return v.X*w.X + v.Y*w.Y }

// Heading returns the direction of v in radians in [0, 2π), measured
// counterclockwise from the +X axis. The zero vector has heading 0.
func (v Vector) Heading() float64 {
	h := math.Atan2(v.Y, v.X)
	if h < 0 {
		h += 2 * math.Pi
	}
	return h
}

// HeadingVector returns the unit vector pointing along heading h (radians).
func HeadingVector(h float64) Vector {
	return Vector{math.Cos(h), math.Sin(h)}
}

// AngleDiff returns the absolute smallest angle between two headings, in
// [0, π]. It is used by mobility-similarity clustering to compare vehicle
// directions.
func AngleDiff(a, b float64) float64 {
	// Mod returns a dividend smaller than its divisor unchanged, so only
	// a difference of a whole turn or more needs it.
	d := math.Abs(a - b)
	if d >= 2*math.Pi {
		d = math.Mod(d, 2*math.Pi)
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Rect is an axis-aligned rectangle, used for simulation bounds and spatial
// index cells. Min is the lower-left corner, Max the upper-right.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}
