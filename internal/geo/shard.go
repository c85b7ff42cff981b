package geo

import (
	"fmt"
	"math"
)

// ShardMap partitions a rectangular world into a fixed nx×ny grid of
// geographic shards. Ownership is purely positional — ShardOf(p) — and the
// topology never changes during a run, which is what makes the sharded
// kernel's merge order (and therefore its output) a fixed function of the
// model: shard ids, neighbor sets and region bounds are all decided before
// the clock starts.
type ShardMap struct {
	bounds Rect
	nx, ny int
	cw, ch float64 // shard cell width/height in meters
}

// NewShardMap creates the shard grid. nx and ny must be positive.
func NewShardMap(bounds Rect, nx, ny int) (*ShardMap, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("geo: shard grid must be at least 1x1, got %dx%d", nx, ny)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: shard bounds must have positive area, got %v", bounds)
	}
	return &ShardMap{
		bounds: bounds,
		nx:     nx,
		ny:     ny,
		cw:     bounds.Width() / float64(nx),
		ch:     bounds.Height() / float64(ny),
	}, nil
}

// FactorShards splits a total shard count into the most square nx×ny grid
// (nx >= ny, nx*ny == n). Every caller that turns a shard count into a
// topology uses this one factorization so a shard count always means the
// same grid.
func FactorShards(n int) (nx, ny int) {
	if n < 1 {
		return 1, 1
	}
	ny = int(math.Sqrt(float64(n)))
	for ; ny > 1; ny-- {
		if n%ny == 0 {
			break
		}
	}
	if ny < 1 {
		ny = 1
	}
	return n / ny, ny
}

// ShardOf returns the shard owning position p. Points outside the bounds
// clamp to the nearest border shard, so ownership is total.
func (m *ShardMap) ShardOf(p Point) int {
	cx := int((p.X - m.bounds.Min.X) / m.cw)
	cy := int((p.Y - m.bounds.Min.Y) / m.ch)
	if cx < 0 {
		cx = 0
	} else if cx >= m.nx {
		cx = m.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= m.ny {
		cy = m.ny - 1
	}
	return cy*m.nx + cx
}

// ShardBounds returns shard i's region rectangle.
func (m *ShardMap) ShardBounds(i int) Rect {
	cx, cy := i%m.nx, i/m.nx
	min := Point{m.bounds.Min.X + float64(cx)*m.cw, m.bounds.Min.Y + float64(cy)*m.ch}
	return Rect{Min: min, Max: Point{min.X + m.cw, min.Y + m.ch}}
}

// DistToShard returns the distance from p to shard i's region (zero when p
// is inside it).
func (m *ShardMap) DistToShard(p Point, i int) float64 {
	r := m.ShardBounds(i)
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// ShardsNear appends to dst every shard id whose region lies within halo
// of p, in ascending id order, and returns the slice. The halo query is
// the boundary-crossing test of the sharded radio path: a transmission
// from p can only matter to shards this returns. Only the 3×3 block of
// shard cells around p is examined, so the cost is independent of the
// shard count as long as halo does not exceed a shard cell dimension.
func (m *ShardMap) ShardsNear(dst []int, p Point, halo float64) []int {
	minCX := int(math.Floor((p.X - halo - m.bounds.Min.X) / m.cw))
	maxCX := int(math.Floor((p.X + halo - m.bounds.Min.X) / m.cw))
	minCY := int(math.Floor((p.Y - halo - m.bounds.Min.Y) / m.ch))
	maxCY := int(math.Floor((p.Y + halo - m.bounds.Min.Y) / m.ch))
	if minCX < 0 {
		minCX = 0
	}
	if maxCX >= m.nx {
		maxCX = m.nx - 1
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCY >= m.ny {
		maxCY = m.ny - 1
	}
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			id := cy*m.nx + cx
			if m.DistToShard(p, id) <= halo {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// ShardedIndex is one shard's view of the world: a spatial index holding
// the shard's own (local) entries plus ghost copies of remote entries
// pushed in by neighboring shards each tick. The pair sweep sees locals
// and ghosts uniformly — the boundary-halo path — so near a shard border
// it finds every in-range pair with a local endpoint that a single global
// index would, provided the ghost set covers the sweep radius (the sharded
// world refreshes ghosts every tick with a halo of radio range plus a
// speed margin).
type ShardedIndex struct {
	idx    *GridIndex
	local  idTable[bool]
	ghosts []int32 // ghost ids in insertion order, for the per-tick sweep
}

// NewShardedIndex creates a shard-local index over the full world bounds
// (positions near the border legitimately fall outside the shard's own
// region) with cells sized to the query radius.
func NewShardedIndex(bounds Rect, cellSize float64) (*ShardedIndex, error) {
	idx, err := NewGridIndex(bounds, cellSize)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{idx: idx}, nil
}

// UpdateLocal inserts or moves a locally-owned entry.
//
//vcloudlint:hotpath one call per local vehicle per tick in the sharded world
func (s *ShardedIndex) UpdateLocal(id int32, p Point) {
	s.local.set(id, true)
	s.idx.Update(id, p)
}

// RemoveLocal removes a locally-owned entry (handoff departure or churn).
func (s *ShardedIndex) RemoveLocal(id int32) {
	s.local.set(id, false)
	s.idx.Remove(id)
}

// UpdateGhost inserts or moves a ghost copy of a remote entry. Ghosts are
// transient: ClearGhosts drops the whole set at the start of each tick,
// before the fresh halo pushes apply.
func (s *ShardedIndex) UpdateGhost(id int32, p Point) {
	if s.local.get(id) {
		// A stale ghost push for an entry this shard now owns must not
		// demote it; the local position is already current.
		return
	}
	if _, ok := s.idx.Position(id); !ok {
		s.ghosts = append(s.ghosts, id)
	}
	s.idx.Update(id, p)
}

// ClearGhosts removes every ghost entry, leaving locals untouched.
func (s *ShardedIndex) ClearGhosts() {
	for _, id := range s.ghosts {
		if !s.local.get(id) {
			s.idx.Remove(id)
		}
	}
	s.ghosts = s.ghosts[:0]
}

// Position returns the indexed position of id (local or ghost).
func (s *ShardedIndex) Position(id int32) (Point, bool) { return s.idx.Position(id) }

// Rows returns the underlying grid's cell row count.
func (s *ShardedIndex) Rows() int { return s.idx.Rows() }

// RowSpan returns how many rows past its own a RowPairs segment reaches.
func (s *ShardedIndex) RowSpan(r float64) int { return s.idx.RowSpan(r) }

// RowPairs appends every in-range pair of indexed entries (local and
// ghost) whose lower-row endpoint lies in cell row cy; see
// GridIndex.RowPairs.
//
//vcloudlint:hotpath the pair sweep of every shard worker's beacon phase
func (s *ShardedIndex) RowPairs(dst []Pair, cy int, r float64) []Pair {
	return s.idx.RowPairs(dst, cy, r)
}
