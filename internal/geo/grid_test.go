package geo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func mustGrid(t *testing.T, bounds Rect, cell float64) *GridIndex {
	t.Helper()
	g, err := NewGridIndex(bounds, cell)
	if err != nil {
		t.Fatalf("NewGridIndex: %v", err)
	}
	return g
}

func TestNewGridIndexValidation(t *testing.T) {
	bounds := NewRect(Point{0, 0}, Point{100, 100})
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		bounds Rect
		cell   float64
		ok     bool
	}{
		{"plain", bounds, 10, true},
		{"one cell", bounds, 1e300, true},
		{"fractional quotient rounds up", bounds, 30, true},
		{"zero cell size", bounds, 0, false},
		{"negative cell size", bounds, -5, false},
		{"NaN cell size", bounds, nan, false},
		{"+Inf cell size", bounds, inf, false},
		{"empty bounds", Rect{}, 10, false},
		{"zero-height bounds", Rect{Min: Point{0, 0}, Max: Point{100, 0}}, 10, false},
		{"NaN bound", Rect{Min: Point{0, 0}, Max: Point{nan, 100}}, 10, false},
		{"infinite bound", Rect{Min: Point{0, 0}, Max: Point{inf, 100}}, 10, false},
		{"both bounds infinite", Rect{Min: Point{-inf, -inf}, Max: Point{inf, inf}}, 10, false},
		{"width overflows to +Inf", Rect{Min: Point{-1e308, 0}, Max: Point{1e308, 100}}, 10, false},
		{"one past the cell ceiling", NewRect(Point{0, 0}, Point{2049, 2048}), 1, false},
		{"cell size in the wrong unit", NewRect(Point{0, 0}, Point{30000, 30000}), 0.3, false},
		{"quotient overflows int", bounds, 1e-300, false},
		{"subnormal cell size", bounds, 5e-324, false},
	} {
		g, err := NewGridIndex(tc.bounds, tc.cell)
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewGridIndex(%v, %v) error = %v, want ok=%v", tc.name, tc.bounds, tc.cell, err, tc.ok)
			continue
		}
		if tc.ok {
			// A fresh index of any accepted shape must take an entry and
			// find it again, in bounds and out.
			g.Update(1, Point{-7, 1e9})
			if got := g.WithinRange(nil, Point{-7, 1e9}, 1, -1); len(got) != 1 || got[0] != 1 {
				t.Errorf("%s: entry not found after Update: %v", tc.name, got)
			}
		}
	}
}

func TestGridUpdateRemove(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{1000, 1000}), 100)
	g.Update(1, Point{50, 50})
	g.Update(2, Point{55, 55})
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	p, ok := g.Position(1)
	if !ok || p != (Point{50, 50}) {
		t.Fatalf("Position(1) = %v, %v", p, ok)
	}
	// Move within the same cell and across cells.
	g.Update(1, Point{60, 60})
	g.Update(1, Point{950, 950})
	p, _ = g.Position(1)
	if p != (Point{950, 950}) {
		t.Fatalf("after move Position(1) = %v", p)
	}
	got := g.WithinRange(nil, Point{60, 60}, 20, -1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("WithinRange after move = %v, want [2]", got)
	}
	g.Remove(2)
	if g.Len() != 1 {
		t.Fatalf("Len after remove = %d", g.Len())
	}
	g.Remove(2) // removing absent id is a no-op
	if _, ok := g.Position(2); ok {
		t.Error("Position(2) should be absent")
	}
}

func TestGridWithinRangeExclude(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{100, 100}), 25)
	g.Update(7, Point{50, 50})
	g.Update(8, Point{52, 50})
	got := g.WithinRange(nil, Point{50, 50}, 10, 7)
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("WithinRange excluding 7 = %v, want [8]", got)
	}
}

func TestGridOutOfBoundsPoints(t *testing.T) {
	// Points outside the declared bounds must still be indexed (clamped to
	// border cells) and findable; vehicles can momentarily overshoot.
	g := mustGrid(t, NewRect(Point{0, 0}, Point{100, 100}), 10)
	g.Update(1, Point{-20, -20})
	g.Update(2, Point{150, 150})
	if got := g.WithinRange(nil, Point{-20, -20}, 5, -1); len(got) != 1 {
		t.Fatalf("out-of-bounds query = %v", got)
	}
	if got := g.WithinRange(nil, Point{150, 150}, 5, -1); len(got) != 1 {
		t.Fatalf("out-of-bounds query high = %v", got)
	}
}

// TestGridMatchesBruteForce is the core property test: the grid index must
// return exactly the same id set as a brute-force scan, across random
// configurations and radii.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := NewRect(Point{0, 0}, Point{2000, 2000})
	for trial := 0; trial < 50; trial++ {
		g := mustGrid(t, bounds, 150)
		pts := make(map[int32]Point)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			id := int32(i)
			p := Point{rng.Float64() * 2000, rng.Float64() * 2000}
			g.Update(id, p)
			pts[id] = p
		}
		// Random moves.
		for i := 0; i < n/2; i++ {
			id := int32(rng.Intn(n))
			p := Point{rng.Float64() * 2000, rng.Float64() * 2000}
			g.Update(id, p)
			pts[id] = p
		}
		q := Point{rng.Float64() * 2000, rng.Float64() * 2000}
		r := 50 + rng.Float64()*500
		got := g.WithinRange(nil, q, r, -1)
		var want []int32
		for id, p := range pts {
			if p.DistSq(q) <= r*r {
				want = append(want, id)
			}
		}
		sortInt32(got)
		sortInt32(want)
		if !equalInt32(got, want) {
			t.Fatalf("trial %d: WithinRange mismatch\n got %v\nwant %v", trial, got, want)
		}

		// Nearest must match brute force too.
		gotID, gotOK := g.Nearest(q, r, -1)
		wantID, wantOK := int32(-1), false
		bestD := r * r
		for id, p := range pts {
			d := p.DistSq(q)
			if d > bestD {
				continue
			}
			if !wantOK || d < bestD || (d == bestD && id < wantID) {
				wantID, wantOK, bestD = id, true, d
			}
		}
		if gotOK != wantOK || (gotOK && gotID != wantID) {
			t.Fatalf("trial %d: Nearest = (%d,%v), want (%d,%v)", trial, gotID, gotOK, wantID, wantOK)
		}
	}
}

func TestGridNearestEmpty(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{100, 100}), 10)
	if _, ok := g.Nearest(Point{50, 50}, 100, -1); ok {
		t.Error("Nearest on empty index should report none")
	}
	g.Update(3, Point{50, 50})
	if _, ok := g.Nearest(Point{50, 50}, 100, 3); ok {
		t.Error("Nearest excluding the only entry should report none")
	}
}

func TestGridZeroRadius(t *testing.T) {
	g := mustGrid(t, NewRect(Point{0, 0}, Point{100, 100}), 10)
	g.Update(1, Point{50, 50})
	if got := g.WithinRange(nil, Point{50, 50}, 0, -1); len(got) != 0 {
		t.Errorf("zero radius should return nothing, got %v", got)
	}
}

// TestWithinRangePosMatchesWithinRange: the combined query must return
// the same ids as WithinRange, with each id's indexed position.
func TestWithinRangePosMatchesWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := mustGrid(t, NewRect(Point{0, 0}, Point{2000, 2000}), 150)
	for i := 0; i < 300; i++ {
		g.Update(int32(i), Point{rng.Float64() * 2000, rng.Float64() * 2000})
	}
	for trial := 0; trial < 20; trial++ {
		q := Point{rng.Float64() * 2000, rng.Float64() * 2000}
		r := 50 + rng.Float64()*400
		ids := g.WithinRange(nil, q, r, 5)
		// Pass nil-backed scratch buffers, the hot-path calling convention.
		var scratchIDs []int32
		var scratchPos []Point
		gotIDs, gotPos := g.WithinRangePos(scratchIDs[:0], scratchPos[:0], q, r, 5)
		if !equalInt32(ids, gotIDs) {
			t.Fatalf("trial %d: ids differ\n got %v\nwant %v", trial, gotIDs, ids)
		}
		if len(gotPos) != len(gotIDs) {
			t.Fatalf("trial %d: %d positions for %d ids", trial, len(gotPos), len(gotIDs))
		}
		for i, id := range gotIDs {
			want, _ := g.Position(id)
			if gotPos[i] != want {
				t.Fatalf("trial %d: pos[%d] = %v, want %v for id %d", trial, i, gotPos[i], want, id)
			}
		}
	}
}

// TestWithinRangeStableOrder: query order must be a pure function of the
// current positions — independent of the insertion/removal history — so
// the radio layer can skip its per-broadcast sort.
func TestWithinRangeStableOrder(t *testing.T) {
	bounds := NewRect(Point{0, 0}, Point{1000, 1000})
	build := func(order []int32) *GridIndex {
		g := mustGrid(t, bounds, 100)
		for _, id := range order {
			g.Update(id, Point{500 + float64(id), 500})
		}
		// Churn: move one entry out and back, delete and re-add another.
		g.Update(order[0], Point{50, 50})
		g.Update(order[0], Point{500 + float64(order[0]), 500})
		g.Remove(order[1])
		g.Update(order[1], Point{500 + float64(order[1]), 500})
		return g
	}
	a := build([]int32{4, 1, 3, 2, 0})
	b := build([]int32{0, 1, 2, 3, 4})
	ga := a.WithinRange(nil, Point{500, 500}, 50, -1)
	gb := b.WithinRange(nil, Point{500, 500}, 50, -1)
	if !equalInt32(ga, gb) {
		t.Fatalf("order depends on history: %v vs %v", ga, gb)
	}
	// Within one cell the order is sorted by id.
	for i := 1; i < len(ga); i++ {
		if ga[i] < ga[i-1] {
			t.Fatalf("cell order not sorted: %v", ga)
		}
	}
}

// TestWithinRangePosAllocFree: with warm caller-owned buffers the query
// must not allocate.
func TestWithinRangePosAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := mustGrid(t, NewRect(Point{0, 0}, Point{2000, 2000}), 300)
	for i := 0; i < 500; i++ {
		g.Update(int32(i), Point{rng.Float64() * 2000, rng.Float64() * 2000})
	}
	ids := make([]int32, 0, 600)
	pos := make([]Point, 0, 600)
	q := Point{1000, 1000}
	allocs := testing.AllocsPerRun(100, func() {
		ids, pos = g.WithinRangePos(ids[:0], pos[:0], q, 300, -1)
	})
	if allocs != 0 {
		t.Errorf("WithinRangePos allocated %.1f times per query, want 0", allocs)
	}
}

// TestWithinRangeSpanCacheInvalidation alternates query radii (including
// revisiting earlier ones) and checks results always match brute force:
// the cached span must be keyed on the radius, never left stale.
func TestWithinRangeSpanCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bounds := NewRect(Point{0, 0}, Point{1500, 1500})
	g := mustGrid(t, bounds, 120)
	pts := make(map[int32]Point)
	for i := 0; i < 400; i++ {
		p := Point{rng.Float64() * 1500, rng.Float64() * 1500}
		g.Update(int32(i), p)
		pts[int32(i)] = p
	}
	radii := []float64{120, 300, 120, 45, 300, 777, 120}
	for trial := 0; trial < 60; trial++ {
		r := radii[trial%len(radii)]
		q := Point{rng.Float64()*1900 - 200, rng.Float64()*1900 - 200} // includes out-of-bounds centers
		got := g.WithinRange(nil, q, r, -1)
		var want []int32
		for id, p := range pts {
			if p.DistSq(q) <= r*r {
				want = append(want, id)
			}
		}
		sortInt32(got)
		sortInt32(want)
		if !equalInt32(got, want) {
			t.Fatalf("trial %d (r=%v): cached-span WithinRange mismatch\n got %v\nwant %v", trial, r, got, want)
		}
	}
}

// TestWithinRangeAllocFree: the fixed-radius hot path must not allocate —
// neither for the result buffer (warm) nor for the cached span geometry.
func TestWithinRangeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := mustGrid(t, NewRect(Point{0, 0}, Point{2000, 2000}), 300)
	for i := 0; i < 500; i++ {
		g.Update(int32(i), Point{rng.Float64() * 2000, rng.Float64() * 2000})
	}
	buf := make([]int32, 0, 600)
	q := Point{777, 777}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.WithinRange(buf[:0], q, 300, -1)
	})
	if allocs != 0 {
		t.Errorf("WithinRange allocated %.1f times per query, want 0", allocs)
	}
}

// sweepPairs runs a RowPairs sweep over every cell row.
func sweepPairs(rows int, rowPairs func([]Pair, int, float64) []Pair, r float64) []Pair {
	var out []Pair
	for cy := 0; cy < rows; cy++ {
		out = rowPairs(out, cy, r)
	}
	return out
}

// checkPairs holds a full sweep to the O(n²) model over pts: each pair of
// distinct entries within r appears exactly once, with D2 bit-equal to
// DistSq, and no emitted pair lies beyond r.
func checkPairs(pts map[int32]Point, got []Pair, r float64) error {
	type key struct{ a, b int32 }
	r2 := r * r
	seen := make(map[key]bool, len(got))
	for _, p := range got {
		k := key{min(p.A, p.B), max(p.A, p.B)}
		if seen[k] {
			return fmt.Errorf("pair %v emitted twice", k)
		}
		seen[k] = true
		pa, okA := pts[p.A]
		pb, okB := pts[p.B]
		if !okA || !okB || p.A == p.B {
			return fmt.Errorf("pair %+v names an absent or repeated entry", p)
		}
		if d := pa.DistSq(pb); math.Float64bits(d) != math.Float64bits(p.D2) {
			return fmt.Errorf("pair %+v: D2 %v, DistSq %v", p, p.D2, d)
		}
		if p.D2 > r2 {
			return fmt.Errorf("pair %+v lies beyond r = %v", p, r)
		}
	}
	ids := make([]int32, 0, len(pts))
	for id := range pts {
		ids = append(ids, id)
	}
	sortInt32(ids)
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if pts[a].DistSq(pts[b]) <= r2 && !seen[key{a, b}] {
				return fmt.Errorf("pair (%d at %v, %d at %v) within %v is missing", a, pts[a], b, pts[b], r)
			}
		}
	}
	return nil
}

// TestRowPairsMatchesBruteForce sweeps seeded indexes with dense cells,
// empty rows and clamped out-of-bounds points at radii below, at and
// beyond the cell size (span 1, 1 and 2) and at +Inf (span capped at the
// grid), after moves and removals, and holds every sweep to the
// brute-force model.
func TestRowPairsMatchesBruteForce(t *testing.T) {
	bounds := NewRect(Point{0, 0}, Point{1000, 600}) // 10×6 cells of 100 m
	const cell = 100.0
	shapes := map[string]func(rng *rand.Rand) Point{
		// A few hot cells holding most of the fleet.
		"dense cells": func(rng *rand.Rand) Point {
			c := Point{float64(100 + 300*rng.Intn(3)), float64(100 + 200*rng.Intn(2))}
			return Point{c.X + rng.Float64()*120, c.Y + rng.Float64()*120}
		},
		// Only rows 0, 1 and 5 are populated; rows 2–4 stay empty.
		"empty rows": func(rng *rand.Rand) Point {
			y := []float64{0, 100, 500}[rng.Intn(3)] + rng.Float64()*100
			return Point{rng.Float64() * 1000, y}
		},
		// Up to 300 m outside the bounds on every side, clamped into the
		// border cells.
		"out of bounds": func(rng *rand.Rand) Point {
			return Point{rng.Float64()*1600 - 300, rng.Float64()*1200 - 300}
		},
	}
	for name, draw := range shapes {
		for _, r := range []float64{0.6 * cell, cell, 1.5 * cell, math.Inf(1)} {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := mustGrid(t, bounds, cell)
				pts := make(map[int32]Point)
				for i := 0; i < 150; i++ {
					id := int32(i)
					if i%10 == 9 {
						id += 1 << 20 // sparse ids beside dense ones
					}
					pts[id] = draw(rng)
					g.Update(id, pts[id])
				}
				for id := range pts {
					switch rng.Intn(4) {
					case 0:
						pts[id] = draw(rng)
						g.Update(id, pts[id])
					case 1:
						delete(pts, id)
						g.Remove(id)
					}
				}
				if err := checkPairs(pts, sweepPairs(g.Rows(), g.RowPairs, r), r); err != nil {
					t.Fatalf("%s, r=%v, seed %d: %v", name, r, seed, err)
				}
			}
		}
	}
	g := mustGrid(t, bounds, cell)
	for r, want := range map[float64]int{0.6 * cell: 1, cell: 1, 1.5 * cell: 2, math.Inf(1): 10} {
		if got := g.RowSpan(r); got != want {
			t.Errorf("RowSpan(%v) = %d, want %d", r, got, want)
		}
	}
}

// FuzzRowPairs drives the same model with fuzzer-chosen operations: each
// five-byte chunk moves (or, with its id byte's high bit set, removes) one
// of 128 ids anywhere within 300 m of the 1000×600 m bounds, and r runs
// from 0 to 6.5 cells.
func FuzzRowPairs(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 2, 255, 255, 255, 255}, uint16(10000))
	f.Add([]byte{1, 10, 100, 10, 100, 2, 12, 100, 12, 100, 3, 14, 100, 14, 100, 129, 0, 0, 0, 0}, uint16(3000))
	f.Add(bytes.Repeat([]byte{7, 40, 40, 40, 40, 8, 41, 40, 40, 40}, 20), uint16(15000))
	f.Fuzz(func(t *testing.T, ops []byte, rc uint16) {
		bounds := NewRect(Point{0, 0}, Point{1000, 600})
		g, err := NewGridIndex(bounds, 100)
		if err != nil {
			t.Fatal(err)
		}
		pts := make(map[int32]Point)
		for ; len(ops) >= 5; ops = ops[5:] {
			id := int32(ops[0] & 0x7f)
			if ops[0]&0x80 != 0 {
				delete(pts, id)
				g.Remove(id)
				continue
			}
			x := float64(binary.LittleEndian.Uint16(ops[1:]))/65535*1600 - 300
			y := float64(binary.LittleEndian.Uint16(ops[3:]))/65535*1200 - 300
			pts[id] = Point{x, y}
			g.Update(id, pts[id])
		}
		r := float64(rc) / 100
		got := sweepPairs(g.Rows(), g.RowPairs, r)
		if r == 0 {
			if len(got) != 0 {
				t.Fatalf("r = 0 emitted %v", got)
			}
			return
		}
		if err := checkPairs(pts, got, r); err != nil {
			t.Fatalf("r=%v: %v", r, err)
		}
	})
}

// TestRowPairsAllocFree: with a warm caller-owned buffer a full sweep
// must not allocate.
func TestRowPairsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := mustGrid(t, NewRect(Point{0, 0}, Point{2000, 2000}), 300)
	for i := 0; i < 500; i++ {
		g.Update(int32(i), Point{rng.Float64() * 2000, rng.Float64() * 2000})
	}
	buf := make([]Pair, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for cy := 0; cy < g.Rows(); cy++ {
			buf = g.RowPairs(buf, cy, 300)
		}
	})
	if allocs != 0 {
		t.Errorf("a RowPairs sweep allocated %.1f times, want 0", allocs)
	}
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkGridWithinRange(b *testing.B) {
	bounds := NewRect(Point{0, 0}, Point{5000, 5000})
	g, err := NewGridIndex(bounds, 300)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g.Update(int32(i), Point{rng.Float64() * 5000, rng.Float64() * 5000})
	}
	buf := make([]int32, 0, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Point{rng.Float64() * 5000, rng.Float64() * 5000}
		buf = g.WithinRange(buf[:0], q, 300, -1)
	}
}

// BenchmarkGridRowPairs sweeps the index of BenchmarkGridWithinRange once
// per op: every in-range pair once, the work 2000 WithinRange queries (one
// per entry) do twice over.
func BenchmarkGridRowPairs(b *testing.B) {
	bounds := NewRect(Point{0, 0}, Point{5000, 5000})
	g, err := NewGridIndex(bounds, 300)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g.Update(int32(i), Point{rng.Float64() * 5000, rng.Float64() * 5000})
	}
	buf := make([]Pair, 0, 1<<15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for cy := 0; cy < g.Rows(); cy++ {
			buf = g.RowPairs(buf, cy, 300)
		}
	}
	b.ReportMetric(float64(len(buf)), "pairs/op")
}

// BenchmarkGridUpdate moves 2000 entries by a vehicle-step-sized hop per
// iteration: mostly same-cell stores, with the occasional cell crossing.
func BenchmarkGridUpdate(b *testing.B) {
	bounds := NewRect(Point{0, 0}, Point{5000, 5000})
	g, err := NewGridIndex(bounds, 300)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 5000, rng.Float64() * 5000}
		g.Update(int32(i), pts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(pts)
		p := &pts[id]
		p.X = math.Mod(p.X+6, 5000)
		g.Update(int32(id), *p)
	}
}
