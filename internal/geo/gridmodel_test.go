package geo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mapGrid is GridIndex as it stood before the dense cell table replaced it
// — cells in a map keyed by cell number, positions in a second map keyed by
// id, Nearest deriving its own cell block — kept verbatim (names aside) as
// the reference model for TestGridMatchesMapModel.
type mapGrid struct {
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

// newMapGrid creates an index over bounds with the given cell size.
// cellSize must be positive; it is typically set to the radio range.
func newMapGrid(bounds Rect, cellSize float64) (*mapGrid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size must be positive, got %v", cellSize)
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("geo: bounds must have positive area, got %v", bounds)
	}
	cols := int(math.Ceil(bounds.Width() / cellSize))
	rows := int(math.Ceil(bounds.Height() / cellSize))
	return &mapGrid{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		cells:    make(map[int][]int32),
		pos:      make(map[int32]Point),
	}, nil
}

func (g *mapGrid) cellKey(p Point) int {
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
func (g *mapGrid) Update(id int32, p Point) {
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
func (g *mapGrid) Remove(id int32) {
	p, ok := g.pos[id]
	if !ok {
		return
	}
	g.removeFromCell(g.cellKey(p), id)
	delete(g.pos, id)
}

// mapCellRank returns the position of id in the sorted cell list (or where
// it would be inserted).
func mapCellRank(ids []int32, id int32) int {
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
func (g *mapGrid) insertIntoCell(key int, id int32) {
	ids := g.cells[key]
	i := mapCellRank(ids, id)
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	g.cells[key] = ids
}

func (g *mapGrid) removeFromCell(key int, id int32) {
	ids := g.cells[key]
	i := mapCellRank(ids, id)
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
func (g *mapGrid) Position(id int32) (Point, bool) {
	p, ok := g.pos[id]
	return p, ok
}

// Len returns the number of indexed entries.
func (g *mapGrid) Len() int { return len(g.pos) }

// WithinRange appends to dst the ids of all entries within radius r of p
// (excluding the id `exclude`, pass a negative value to exclude nothing)
// and returns the extended slice. Results come out in the stable
// cell-major, id-minor order.
func (g *mapGrid) WithinRange(dst []int32, p Point, r float64, exclude int32) []int32 {
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
func (g *mapGrid) WithinRangePos(ids []int32, pos []Point, p Point, r float64, exclude int32) ([]int32, []Point) {
	return g.withinRange(ids, pos, true, p, r, exclude)
}

func (g *mapGrid) withinRange(ids []int32, pos []Point, withPos bool, p Point, r float64, exclude int32) ([]int32, []Point) {
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
	minCX, maxCX := mapClampRange(cx-g.qSpan, cx+g.qSpan, g.cols)
	minCY, maxCY := mapClampRange(cy-g.qSpan, cy+g.qSpan, g.rows)
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

// mapClampRange clamps an inclusive cell range into [0, n-1]. Out-of-bounds
// points are stored in border cells, so queries that fall outside the
// bounds must still visit the nearest border cell on each axis.
func mapClampRange(lo, hi, n int) (int, int) {
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
func (g *mapGrid) Nearest(p Point, r float64, exclude int32) (int32, bool) {
	best := int32(-1)
	bestD := r * r
	minCX := int((p.X - r - g.bounds.Min.X) / g.cellSize)
	maxCX := int((p.X + r - g.bounds.Min.X) / g.cellSize)
	minCY := int((p.Y - r - g.bounds.Min.Y) / g.cellSize)
	maxCY := int((p.Y + r - g.bounds.Min.Y) / g.cellSize)
	minCX, maxCX = mapClampRange(minCX, maxCX, g.cols)
	minCY, maxCY = mapClampRange(minCY, maxCY, g.rows)
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

// TestGridMatchesMapModel drives the dense-table GridIndex and the old
// map-backed one through the same seeded operation sequences and requires
// equal answers in equal order after every operation: the query order is
// what radio.Medium's RNG draw order, and with it every committed digest,
// hangs on.
func TestGridMatchesMapModel(t *testing.T) {
	bounds := NewRect(Point{-300, 100}, Point{1500, 1300})
	const cellSize = 150
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := mustGrid(t, bounds, cellSize)
		m, err := newMapGrid(bounds, cellSize)
		if err != nil {
			t.Fatal(err)
		}
		// Dense vehicle ids and sparse RSU-style ids share the index.
		ids := make([]int32, 0, 90)
		for i := int32(0); i < 60; i++ {
			ids = append(ids, i)
		}
		for i := int32(0); i < 30; i++ {
			ids = append(ids, 1<<20+i*1000)
		}
		point := func() Point {
			p := Point{bounds.Min.X + rng.Float64()*bounds.Width(), bounds.Min.Y + rng.Float64()*bounds.Height()}
			switch rng.Intn(8) {
			case 0: // out of bounds, clamped into a border cell
				p.X += (rng.Float64() - 0.5) * 4 * bounds.Width()
				p.Y += (rng.Float64() - 0.5) * 4 * bounds.Height()
			case 1: // exactly on a cell corner
				p.X = bounds.Min.X + cellSize*float64(rng.Intn(13))
				p.Y = bounds.Min.Y + cellSize*float64(rng.Intn(9))
			}
			return p
		}
		var sameCell, crossed, readded, absentRemoves int
		removed := make(map[int32]bool)
		for op := 0; op < 6000; op++ {
			id := ids[rng.Intn(len(ids))]
			switch k := rng.Intn(10); {
			case k < 4:
				p := point()
				if old, ok := m.Position(id); ok && rng.Intn(2) == 0 {
					// A short hop: usually stays in its cell.
					p = Point{old.X + rng.Float64()*20 - 10, old.Y + rng.Float64()*20 - 10}
				}
				if old, ok := m.Position(id); !ok {
					if removed[id] {
						readded++
					}
				} else if m.cellKey(old) == m.cellKey(p) {
					sameCell++
				} else {
					crossed++
				}
				g.Update(id, p)
				m.Update(id, p)
			case k < 6:
				if _, ok := m.Position(id); !ok {
					absentRemoves++
				}
				removed[id] = true
				g.Remove(id)
				m.Remove(id)
			}
			if g.Len() != m.Len() {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, g.Len(), m.Len())
			}
			gp, gok := g.Position(id)
			mp, mok := m.Position(id)
			if gp != mp || gok != mok {
				t.Fatalf("seed %d op %d: Position(%d) = %v,%v, model %v,%v", seed, op, id, gp, gok, mp, mok)
			}
			q := point()
			r := []float64{0, 1, 75, 150, 150, 150, 151, 420, 3000}[rng.Intn(9)]
			exclude := int32(-1)
			if rng.Intn(2) == 0 {
				exclude = ids[rng.Intn(len(ids))]
			}
			if rng.Intn(3) == 0 {
				if p, ok := m.Position(id); ok {
					q = p // a query from an indexed entry, the radio's shape
				}
			}
			got, want := g.WithinRange(nil, q, r, exclude), m.WithinRange(nil, q, r, exclude)
			if !equalInt32(got, want) {
				t.Fatalf("seed %d op %d: WithinRange(%v, %v, %d)\n got %v\nwant %v", seed, op, q, r, exclude, got, want)
			}
			gi, gpos := g.WithinRangePos(nil, nil, q, r, exclude)
			mi, mpos := m.WithinRangePos(nil, nil, q, r, exclude)
			if !equalInt32(gi, mi) || len(gpos) != len(mpos) {
				t.Fatalf("seed %d op %d: WithinRangePos(%v, %v, %d) ids\n got %v\nwant %v", seed, op, q, r, exclude, gi, mi)
			}
			for i := range gpos {
				if gpos[i] != mpos[i] {
					t.Fatalf("seed %d op %d: WithinRangePos pos[%d] = %v, model %v", seed, op, i, gpos[i], mpos[i])
				}
			}
			gn, gnok := g.Nearest(q, r, exclude)
			mn, mnok := m.Nearest(q, r, exclude)
			if gn != mn || gnok != mnok {
				t.Fatalf("seed %d op %d: Nearest(%v, %v, %d) = %d,%v, model %d,%v", seed, op, q, r, exclude, gn, gnok, mn, mnok)
			}
		}
		if sameCell == 0 || crossed == 0 || readded == 0 || absentRemoves == 0 {
			t.Fatalf("seed %d: a case never occurred: %d same-cell moves, %d crossings, %d re-adds, %d removes of an absent id",
				seed, sameCell, crossed, readded, absentRemoves)
		}
	}
}
