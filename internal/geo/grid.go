package geo

import (
	"fmt"
	"math"
)

// GridIndex is a uniform-grid spatial index mapping integer IDs to points.
// It supports the neighbor queries that dominate the simulator's hot path:
// "which vehicles are within radio range R of position p". Cells are sized
// close to the typical query radius so a query touches at most a 3×3 block.
//
// Cell membership is kept sorted by id, so range queries yield ids in a
// stable (cell-major, id-minor) order that is independent of insertion and
// removal history. Hot paths can therefore consume query results directly,
// without re-sorting for determinism.
//
// GridIndex is not safe for concurrent use; the simulation kernel is
// single-goroutine by design (see internal/sim).
type GridIndex struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    map[int][]int32 // cell key -> ids
	pos      map[int32]Point // id -> last indexed position
	// qR/qR2/qSpan cache the per-radius query geometry. Almost every
	// query uses the one fixed radio range, so the squared radius and the
	// cell span are computed once per radius instead of once per call.
	qR    float64
	qR2   float64
	qSpan int
}

// NewGridIndex creates an index over bounds with the given cell size.
// cellSize must be positive; it is typically set to the radio range.
func NewGridIndex(bounds Rect, cellSize float64) (*GridIndex, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size must be positive, got %v", cellSize)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: bounds must have positive area, got %v", bounds)
	}
	cols := int(math.Ceil(bounds.Width() / cellSize))
	rows := int(math.Ceil(bounds.Height() / cellSize))
	return &GridIndex{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make(map[int][]int32),
		pos:      make(map[int32]Point),
	}, nil
}

func (g *GridIndex) cellKey(p Point) int {
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// Update inserts id at p, or moves it there if already present.
func (g *GridIndex) Update(id int32, p Point) {
	if old, ok := g.pos[id]; ok {
		ok2 := g.cellKey(old)
		nk := g.cellKey(p)
		if ok2 == nk {
			g.pos[id] = p
			return
		}
		g.removeFromCell(ok2, id)
	}
	g.insertIntoCell(g.cellKey(p), id)
	g.pos[id] = p
}

// Remove deletes id from the index. Removing an absent id is a no-op.
func (g *GridIndex) Remove(id int32) {
	p, ok := g.pos[id]
	if !ok {
		return
	}
	g.removeFromCell(g.cellKey(p), id)
	delete(g.pos, id)
}

// cellRank returns the position of id in the sorted cell list (or where
// it would be inserted).
func cellRank(ids []int32, id int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertIntoCell adds id to the cell keeping the list sorted. The ordered
// insert only runs when an entry changes cells, so its memmove cost is
// paid per cell crossing, not per query.
func (g *GridIndex) insertIntoCell(key int, id int32) {
	ids := g.cells[key]
	i := cellRank(ids, id)
	//vcloudlint:allow hotalloc the cell's list is stored back below and keeps its capacity, so growth is amortized over cell crossings
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	g.cells[key] = ids
}

func (g *GridIndex) removeFromCell(key int, id int32) {
	ids := g.cells[key]
	i := cellRank(ids, id)
	if i < len(ids) && ids[i] == id {
		ids = append(ids[:i], ids[i+1:]...)
	}
	if len(ids) == 0 {
		delete(g.cells, key)
	} else {
		g.cells[key] = ids
	}
}

// Position returns the last indexed position of id.
func (g *GridIndex) Position(id int32) (Point, bool) {
	p, ok := g.pos[id]
	return p, ok
}

// Len returns the number of indexed entries.
func (g *GridIndex) Len() int { return len(g.pos) }

// WithinRange appends to dst the ids of all entries within radius r of p
// (excluding the id `exclude`, pass a negative value to exclude nothing)
// and returns the extended slice. Results come out in the stable
// cell-major, id-minor order.
func (g *GridIndex) WithinRange(dst []int32, p Point, r float64, exclude int32) []int32 {
	dst, _ = g.withinRange(dst, nil, false, p, r, exclude)
	return dst
}

// WithinRangePos appends the ids and positions of all entries within
// radius r of p (excluding `exclude`) into the caller-owned buffers and
// returns the extended slices; ids[i] is located at pos[i]. It exists for
// the radio hot path: one query yields both the neighbor set and the
// positions needed for the distance model, in the stable cell-major,
// id-minor order, with no per-neighbor position re-lookup and no
// allocation beyond (amortized) buffer growth.
//
//vcloudlint:hotpath one query per broadcast; only caller-owned buffers may grow
func (g *GridIndex) WithinRangePos(ids []int32, pos []Point, p Point, r float64, exclude int32) ([]int32, []Point) {
	return g.withinRange(ids, pos, true, p, r, exclude)
}

func (g *GridIndex) withinRange(ids []int32, pos []Point, withPos bool, p Point, r float64, exclude int32) ([]int32, []Point) {
	if r <= 0 {
		return ids, pos
	}
	if r != g.qR {
		g.qR = r
		g.qR2 = r * r
		g.qSpan = int(math.Ceil(r / g.cellSize))
	}
	r2 := g.qR2
	// Center-cell ± span covers every cell the old per-call
	// (p±r)/cellSize derivation did (trunc(a±d) lies within
	// trunc(a)±ceil(d) for d >= 0), so the visited set is a superset and
	// the exact distance filter keeps results identical; cells beyond the
	// disk are empty lookups.
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	minCX, maxCX := clampRange(cx-g.qSpan, cx+g.qSpan, g.cols)
	minCY, maxCY := clampRange(cy-g.qSpan, cy+g.qSpan, g.rows)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[cy*g.cols+cx] {
				if id == exclude {
					continue
				}
				q := g.pos[id]
				if q.DistSq(p) <= r2 {
					ids = append(ids, id)
					if withPos {
						pos = append(pos, q)
					}
				}
			}
		}
	}
	return ids, pos
}

// clampRange clamps an inclusive cell range into [0, n-1]. Out-of-bounds
// points are stored in border cells, so queries that fall outside the
// bounds must still visit the nearest border cell on each axis.
func clampRange(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	} else if lo >= n {
		lo = n - 1
	}
	if hi >= n {
		hi = n - 1
	} else if hi < 0 {
		hi = 0
	}
	return lo, hi
}

// Nearest returns the id of the entry closest to p within radius r, or
// (-1, false) if none exists. The entry `exclude` is skipped.
func (g *GridIndex) Nearest(p Point, r float64, exclude int32) (int32, bool) {
	best := int32(-1)
	bestD := r * r
	minCX := int((p.X - r - g.bounds.Min.X) / g.cellSize)
	maxCX := int((p.X + r - g.bounds.Min.X) / g.cellSize)
	minCY := int((p.Y - r - g.bounds.Min.Y) / g.cellSize)
	maxCY := int((p.Y + r - g.bounds.Min.Y) / g.cellSize)
	minCX, maxCX = clampRange(minCX, maxCX, g.cols)
	minCY, maxCY = clampRange(minCY, maxCY, g.rows)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[cy*g.cols+cx] {
				if id == exclude {
					continue
				}
				d := g.pos[id].DistSq(p)
				if d > bestD {
					continue
				}
				// Tie-break on id so results are deterministic across map
				// iteration orders.
				if best < 0 || d < bestD || (d == bestD && id < best) {
					best, bestD = id, d
				}
			}
		}
	}
	return best, best >= 0
}
