package geo

import (
	"fmt"
	"math"
)

// maxGridCells bounds cols×rows: the cell table is dense (48 bytes a cell,
// so ~200 MB at the ceiling), and a cell size given in the wrong unit must
// fail the constructor rather than the allocator. Every caller sizes cells
// to the radio range; the largest world in the tree is ~900 cells.
const maxGridCells = 1 << 22

// cell holds the entries of one grid square as parallel arrays sorted by
// id; pts[i] is where ids[i] was last indexed.
type cell struct {
	ids []int32
	pts []Point
}

// GridIndex is a uniform-grid spatial index mapping integer IDs to points.
// It supports the neighbor queries that dominate the simulator's hot path:
// "which vehicles are within radio range R of position p". Cells are sized
// close to the typical query radius so a query touches at most a 3×3 block.
//
// Cells form one dense row-major table and an entry's position lives in
// its cell and nowhere else, so a range query streams over contiguous
// arrays without a map lookup per cell or per candidate. Only
// non-negative ids are indexed. Cell membership is kept sorted by id, so
// range queries yield ids in a stable (cell-major, id-minor) order that
// is independent of insertion and removal history. Hot paths can
// therefore consume query results directly, without re-sorting for
// determinism.
//
// GridIndex is not safe for concurrent use; the simulation kernel is
// single-goroutine by design (see internal/sim).
type GridIndex struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    []cell // cols×rows, row-major
	// where maps id -> cell key + 1, zero for an id not indexed. Ids are
	// sparse (scenario.RSUBase is 1<<20), so it is paged; only Update,
	// Remove and Position read it, never a query.
	where idTable[int32]
	// qR/qR2/qSpan cache the per-radius query geometry. Almost every
	// query uses the one fixed radio range, so the squared radius and the
	// cell span are computed once per radius instead of once per call.
	qR    float64
	qR2   float64
	qSpan int
}

// NewGridIndex creates an index over bounds with the given cell size.
// cellSize must be positive and finite, bounds must have positive finite
// area, and the grid may not exceed maxGridCells; cellSize is typically
// set to the radio range.
func NewGridIndex(bounds Rect, cellSize float64) (*GridIndex, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 0) {
		return nil, fmt.Errorf("geo: cell size must be positive and finite, got %v", cellSize)
	}
	w, h := bounds.Width(), bounds.Height()
	if !(w > 0) || !(h > 0) || math.IsInf(w, 0) || math.IsInf(h, 0) {
		return nil, fmt.Errorf("geo: bounds must have positive finite area, got %v", bounds)
	}
	// Compared as floats: a huge quotient must not reach the int
	// conversion, whose result is unspecified on overflow.
	cols, rows := math.Ceil(w/cellSize), math.Ceil(h/cellSize)
	if cols*rows > maxGridCells {
		return nil, fmt.Errorf("geo: %v×%v cells of size %v over %v exceed the %d-cell limit", cols, rows, cellSize, bounds, maxGridCells)
	}
	return &GridIndex{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     int(cols),
		rows:     int(rows),
		cells:    make([]cell, int(cols)*int(rows)),
	}, nil
}

// Cell returns the column and row of the cell holding p (a point outside
// the bounds is held by the nearest border cell) and the grid's columns
// and rows; the cell's key in a row-major table is cy*cols+cx.
func (g *GridIndex) Cell(p Point) (cx, cy, cols, rows int) {
	cx = int((p.X - g.bounds.Min.X) / g.cellSize)
	cy = int((p.Y - g.bounds.Min.Y) / g.cellSize)
	cx, _ = clampRange(cx, cx, g.cols)
	cy, _ = clampRange(cy, cy, g.rows)
	return cx, cy, g.cols, g.rows
}

func (g *GridIndex) cellKey(p Point) int32 {
	cx, cy, cols, _ := g.Cell(p)
	return int32(cy*cols + cx)
}

// Update inserts id at p, or moves it there if already present. A
// negative id is not an entry: updating one is a no-op.
//
//vcloudlint:hotpath one call per vehicle per mobility tick; only a cell crossing may grow a cell
func (g *GridIndex) Update(id int32, p Point) {
	if id < 0 {
		return
	}
	key := g.cellKey(p)
	if old := g.where.get(id) - 1; old >= 0 {
		c := &g.cells[old]
		i := cellRank(c.ids, id)
		if old == key {
			c.pts[i] = p
			return
		}
		c.remove(i)
	}
	g.cells[key].insert(id, p)
	g.where.set(id, key+1)
}

// Remove deletes id from the index. Removing an absent id is a no-op.
func (g *GridIndex) Remove(id int32) {
	key := g.where.get(id) - 1
	if key < 0 {
		return
	}
	c := &g.cells[key]
	c.remove(cellRank(c.ids, id))
	g.where.set(id, 0)
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

// insert adds (id, p) to the cell keeping it sorted by id. The ordered
// insert only runs when an entry changes cells, so its memmove cost is
// paid per cell crossing, not per query.
func (c *cell) insert(id int32, p Point) {
	i := cellRank(c.ids, id)
	c.ids, c.pts = append(c.ids, 0), append(c.pts, Point{})
	copy(c.ids[i+1:], c.ids[i:])
	copy(c.pts[i+1:], c.pts[i:])
	c.ids[i], c.pts[i] = id, p
}

// remove drops the entry at rank i.
func (c *cell) remove(i int) {
	c.ids = append(c.ids[:i], c.ids[i+1:]...)
	c.pts = append(c.pts[:i], c.pts[i+1:]...)
}

// Position returns the last indexed position of id.
//
//vcloudlint:hotpath read per frame by the radio's sender lookup and fault verdicts
func (g *GridIndex) Position(id int32) (Point, bool) {
	key := g.where.get(id) - 1
	if key < 0 {
		return Point{}, false
	}
	c := &g.cells[key]
	return c.pts[cellRank(c.ids, id)], true
}

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
// id-minor order, with no map lookup per cell or per candidate and no
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
	minCX, maxCX, minCY, maxCY := g.block(p, r)
	r2 := g.qR2
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			c := &g.cells[cy*g.cols+cx]
			pts := c.pts[:len(c.ids)]
			for i, id := range c.ids {
				q := pts[i]
				if q.DistSq(p) > r2 || id == exclude {
					continue
				}
				ids = append(ids, id)
				if withPos {
					pos = append(pos, q)
				}
			}
		}
	}
	return ids, pos
}

// radius caches the per-radius query geometry: r², and ceil(r/cellSize),
// the cell span a radius-r disk can reach from its center cell.
func (g *GridIndex) radius(r float64) {
	if r != g.qR {
		g.qR = r
		g.qR2 = r * r
		g.qSpan = int(math.Ceil(r / g.cellSize))
	}
}

// block returns the inclusive, clamped cell range a radius-r query around
// p must visit, caching the per-radius geometry. Center-cell ± span covers
// every cell a per-call (p±r)/cellSize derivation would (trunc(a±d) lies
// within trunc(a)±ceil(d) for d >= 0), so the visited set is a superset
// and the callers' exact distance filter decides the result; cells beyond
// the disk cost one empty slice header each.
func (g *GridIndex) block(p Point, r float64) (minCX, maxCX, minCY, maxCY int) {
	g.radius(r)
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	minCX, maxCX = clampRange(cx-g.qSpan, cx+g.qSpan, g.cols)
	minCY, maxCY = clampRange(cy-g.qSpan, cy+g.qSpan, g.rows)
	return minCX, maxCX, minCY, maxCY
}

// Pair is one unordered pair of indexed entries within a sweep radius. A
// lies in the swept row; B lies in that row or in one of the RowSpan rows
// after it.
type Pair struct {
	A, B int32
	D2   float64 // squared distance between their indexed positions
}

// Rows returns the number of cell rows, the range of RowPairs' cy.
func (g *GridIndex) Rows() int { return g.rows }

// RowSpan returns how many rows past cy a RowPairs(cy, r) segment can
// reach: ceil(r/cellSize), capped at the larger grid dimension, beyond
// which a segment already reaches every cell.
func (g *GridIndex) RowSpan(r float64) int {
	g.radius(r)
	if lim := max(g.rows, g.cols); g.qSpan < 0 || g.qSpan > lim {
		return lim
	}
	return g.qSpan
}

// RowPairs appends to dst every unordered pair of entries within radius r
// of each other whose lower-row endpoint lies in cell row cy, and returns
// the extended slice. Over cy = 0 … Rows()-1 it emits every in-range pair
// of the index exactly once, each with its DistSq.
//
// Each cell of the row is paired with itself (ids in ascending order, so
// i < j) and with its forward half-shell: the span cells to its right in
// the row, then the 2·span+1 cells centred under it in each of the next
// span rows, span = RowSpan(r). Two entries within r of each other sit at
// most span cells apart on each axis: truncating coordinates d ≤ r apart
// yields cell indices at most ceil(d/cellSize) apart, and clamping into the
// grid never moves two indices further apart, |clamp(a)−clamp(b)| ≤ |a−b|.
// Border-cell clamping of out-of-bounds entries therefore cannot separate
// an in-range pair, and the cell pair holding it is visited from exactly
// one side.
//
//vcloudlint:hotpath one sweep per row per beacon phase in the sharded world; only the caller-owned buffer may grow
func (g *GridIndex) RowPairs(dst []Pair, cy int, r float64) []Pair {
	if !(r > 0) || cy < 0 || cy >= g.rows {
		return dst
	}
	span := g.RowSpan(r)
	r2 := g.qR2
	lastY := min(cy+span, g.rows-1)
	row := g.cells[cy*g.cols : (cy+1)*g.cols]
	for cx := range row {
		c := &row[cx]
		if len(c.ids) == 0 {
			continue
		}
		pts := c.pts[:len(c.ids)]
		for i, a := range c.ids {
			p := pts[i]
			for j := i + 1; j < len(pts); j++ {
				if d := p.DistSq(pts[j]); d <= r2 {
					dst = append(dst, Pair{A: a, B: c.ids[j], D2: d})
				}
			}
		}
		dst = c.pairsWith(dst, row[cx+1:min(cx+span, g.cols-1)+1], r2)
		lo, hi := max(cx-span, 0), min(cx+span, g.cols-1)
		for y := cy + 1; y <= lastY; y++ {
			dst = c.pairsWith(dst, g.cells[y*g.cols+lo:y*g.cols+hi+1], r2)
		}
	}
	return dst
}

// pairsWith appends every pair of one entry of c and one of others that
// lies within sqrt(r2), with c's entry as A.
func (c *cell) pairsWith(dst []Pair, others []cell, r2 float64) []Pair {
	pts := c.pts[:len(c.ids)]
	for k := range others {
		o := &others[k]
		opts := o.pts[:len(o.ids)]
		for i, a := range c.ids {
			p := pts[i]
			for j, q := range opts {
				if d := p.DistSq(q); d <= r2 {
					dst = append(dst, Pair{A: a, B: o.ids[j], D2: d})
				}
			}
		}
	}
	return dst
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
