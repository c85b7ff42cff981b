package geo

import (
	"math"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Len returns the number of indexed entries.
func (g *GridIndex) Len() int { return g.where.count() }

// Nearest returns the id of the entry closest to p within radius r, or
// (-1, false) if none exists. The entry `exclude` is skipped.
func (g *GridIndex) Nearest(p Point, r float64, exclude int32) (int32, bool) {
	best := int32(-1)
	minCX, maxCX, minCY, maxCY := g.block(p, r)
	bestD := g.qR2
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			c := &g.cells[cy*g.cols+cx]
			for i, id := range c.ids {
				if id == exclude {
					continue
				}
				d := c.pts[i].DistSq(p)
				if d > bestD {
					continue
				}
				// Tie-break on id so the result does not depend on which
				// cell is visited first.
				if best < 0 || d < bestD || (d == bestD && id < best) {
					best, bestD = id, d
				}
			}
		}
	}
	return best, best >= 0
}

// Add returns p displaced by v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Add returns the component-wise sum of v and w.
func (v Vector) Add(w Vector) Vector { return Vector{v.X + w.X, v.Y + w.Y} }

// Len returns the magnitude of v.
func (v Vector) Len() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y) }

// Norm returns the unit vector in the direction of v. The zero vector
// normalizes to itself.
func (v Vector) Norm() Vector {
	l := v.Len()
	if l == 0 {
		return Vector{}
	}
	return Vector{v.X / l, v.Y / l}
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// SegmentDist returns the distance from point p to the segment ab.
func SegmentDist(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return p.Dist(a)
	}
	t := p.Sub(a).Dot(ab) / l2
	t = math.Max(0, math.Min(1, t))
	return p.Dist(a.Lerp(b, t))
}

// ProjectOnSegment returns the parameter t in [0,1] of the point on segment
// ab closest to p. Callers combine it with Lerp to get the projection.
func ProjectOnSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	l2 := ab.Dot(ab)
	if l2 == 0 {
		return 0
	}
	t := p.Sub(a).Dot(ab) / l2
	return math.Max(0, math.Min(1, t))
}

// NumShards returns nx*ny.
func (m *ShardMap) NumShards() int { return m.nx * m.ny }

// Grid returns the (nx, ny) shard grid dimensions.
func (m *ShardMap) Grid() (nx, ny int) { return m.nx, m.ny }

// Bounds returns the world bounds.
func (m *ShardMap) Bounds() Rect { return m.bounds }

// CellSize returns one shard region's width and height in meters.
func (m *ShardMap) CellSize() (w, h float64) { return m.cw, m.ch }

// IsLocal reports whether id is owned by this shard.
func (s *ShardedIndex) IsLocal(id int32) bool { return s.local.get(id) }

// NumLocal returns the number of locally-owned entries.
func (s *ShardedIndex) NumLocal() int { return s.local.count() }

// count returns how many ids hold a non-zero value.
func (t *idTable[V]) count() int {
	var zero V
	n := 0
	for _, pg := range t.dir {
		if pg == nil {
			continue
		}
		for _, v := range pg {
			if v != zero {
				n++
			}
		}
	}
	return n
}

// pages returns the directory length and how many pages it holds.
func (t *idTable[V]) pages() (dir, allocated int) {
	for _, pg := range t.dir {
		if pg != nil {
			allocated++
		}
	}
	return len(t.dir), allocated
}

// NumGhosts returns the current ghost count.
func (s *ShardedIndex) NumGhosts() int { return len(s.ghosts) }
