package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestFactorShards(t *testing.T) {
	cases := map[int][2]int{
		0: {1, 1}, 1: {1, 1}, 2: {2, 1}, 3: {3, 1}, 4: {2, 2},
		6: {3, 2}, 8: {4, 2}, 9: {3, 3}, 12: {4, 3}, 16: {4, 4}, 7: {7, 1},
	}
	for n, want := range cases {
		nx, ny := FactorShards(n)
		if nx != want[0] || ny != want[1] {
			t.Errorf("FactorShards(%d) = %dx%d, want %dx%d", n, nx, ny, want[0], want[1])
		}
	}
}

func TestShardMapOwnership(t *testing.T) {
	bounds := NewRect(Point{0, 0}, Point{4000, 2000})
	m, err := NewShardMap(bounds, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 8 {
		t.Fatalf("NumShards = %d, want 8", m.NumShards())
	}
	// Each shard owns its own region's center.
	for i := 0; i < m.NumShards(); i++ {
		if got := m.ShardOf(m.ShardBounds(i).Center()); got != i {
			t.Errorf("ShardOf(center of %d) = %d", i, got)
		}
	}
	// Out-of-bounds points clamp to border shards: ownership is total.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		p := Point{rng.Float64()*6000 - 1000, rng.Float64()*4000 - 1000}
		s := m.ShardOf(p)
		if s < 0 || s >= m.NumShards() {
			t.Fatalf("ShardOf(%v) = %d out of range", p, s)
		}
	}
}

func TestShardsNearMatchesBruteForce(t *testing.T) {
	bounds := NewRect(Point{0, 0}, Point{3000, 3000})
	m, err := NewShardMap(bounds, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		p := Point{rng.Float64() * 3000, rng.Float64() * 3000}
		halo := rng.Float64() * 900
		got := m.ShardsNear(nil, p, halo)
		var want []int
		for i := 0; i < m.NumShards(); i++ {
			if m.DistToShard(p, i) <= halo {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: ShardsNear(%v, %v) = %v, want %v", trial, p, halo, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ShardsNear(%v, %v) = %v, want %v", trial, p, halo, got, want)
			}
		}
	}
}

func TestShardedIndexGhostLifecycle(t *testing.T) {
	s, err := NewShardedIndex(NewRect(Point{0, 0}, Point{1000, 1000}), 100)
	if err != nil {
		t.Fatal(err)
	}
	s.UpdateLocal(1, Point{100, 100})
	s.UpdateGhost(2, Point{150, 100})
	if !s.IsLocal(1) || s.IsLocal(2) {
		t.Fatal("locality tracking wrong")
	}
	if s.NumLocal() != 1 || s.NumGhosts() != 1 {
		t.Fatalf("counts = (%d local, %d ghost), want (1, 1)", s.NumLocal(), s.NumGhosts())
	}
	if got := sweepPairs(s.Rows(), s.RowPairs, 200); len(got) != 1 || got[0].A+got[0].B != 3 {
		t.Fatalf("sweep over local+ghost = %v, want the one pair of 1 and 2", got)
	}
	// A ghost push for an entry the shard owns must not corrupt it.
	s.UpdateGhost(1, Point{900, 900})
	if p, _ := s.Position(1); p != (Point{100, 100}) {
		t.Fatalf("ghost push demoted a local entry to %v", p)
	}
	s.ClearGhosts()
	if s.NumGhosts() != 0 {
		t.Fatal("ghosts not cleared")
	}
	if _, ok := s.Position(2); ok {
		t.Fatal("ghost survived ClearGhosts")
	}
	if _, ok := s.Position(1); !ok {
		t.Fatal("ClearGhosts removed a local entry")
	}
	// Promotion: a former ghost handed off to this shard survives clears.
	s.UpdateGhost(3, Point{500, 500})
	s.UpdateLocal(3, Point{510, 500})
	s.ClearGhosts()
	if _, ok := s.Position(3); !ok {
		t.Fatal("promoted entry removed by ClearGhosts")
	}
	s.RemoveLocal(3)
	if _, ok := s.Position(3); ok {
		t.Fatal("RemoveLocal left the entry indexed")
	}

	// Page edges of both id tables, counted exactly through inserts,
	// removes, promotions and ghost clears.
	counts := func(step string, locals, ghosts, indexed int) {
		t.Helper()
		if s.NumLocal() != locals || s.NumGhosts() != ghosts || s.idx.Len() != indexed {
			t.Fatalf("%s: (%d local, %d ghost, %d indexed), want (%d, %d, %d)",
				step, s.NumLocal(), s.NumGhosts(), s.idx.Len(), locals, ghosts, indexed)
		}
	}
	counts("after the lifecycle", 1, 0, 1)
	for i, id := range []int32{0, 1023, 1024, 1 << 20, 1<<20 + 1023} {
		s.UpdateLocal(id, Point{float64(100 + 150*i), 300})
	}
	counts("page-edge locals", 6, 0, 6)
	// 1023 is a local, so its push is ignored; 1<<20+1024 opens a page
	// of the cell table only.
	for i, id := range []int32{1023, 1025, 1<<20 + 1, 1<<20 + 1024} {
		s.UpdateGhost(id, Point{float64(110 + 150*i), 300})
	}
	counts("page-edge ghosts", 6, 3, 9)
	if !s.IsLocal(1023) || s.IsLocal(1025) || s.IsLocal(1<<20+1024) {
		t.Fatal("locality wrong at a page edge")
	}
	s.UpdateLocal(1025, Point{260, 300}) // promoted, still on the ghost list
	s.RemoveLocal(1023)
	counts("promote and remove", 6, 3, 8)
	s.ClearGhosts()
	counts("ghosts cleared", 6, 0, 6)
	for _, id := range []int32{0, 1, 2, 1023, 1024, 1025, 1 << 20, 1<<20 + 1, 1<<20 + 1023, 1<<20 + 1024} {
		_, ok := s.Position(id)
		if want := id != 2 && id != 1023 && id != 1<<20+1 && id != 1<<20+1024; ok != want || s.IsLocal(id) != want {
			t.Fatalf("after the clear, id %d indexed = %v, local = %v, want %v", id, ok, s.IsLocal(id), want)
		}
	}

	// Negative ids and ids past the directory: nothing found, nothing
	// allocated, nothing counted.
	dir, pages := s.local.pages()
	gdir, gpages := s.idx.where.pages()
	for _, id := range []int32{-1, -1024, math.MinInt32, 1 << 22, math.MaxInt32} {
		if _, ok := s.Position(id); ok || s.IsLocal(id) {
			t.Fatalf("never-indexed id %d found", id)
		}
		s.RemoveLocal(id)
	}
	s.UpdateLocal(-5, Point{500, 500})
	s.UpdateGhost(-6, Point{500, 500})
	s.ClearGhosts()
	counts("negative ids", 6, 0, 6)
	if d, n := s.local.pages(); d != dir || n != pages {
		t.Fatalf("locality table grew from %d pages in %d to %d in %d", pages, dir, n, d)
	}
	if d, n := s.idx.where.pages(); d != gdir || n != gpages {
		t.Fatalf("cell table grew from %d pages in %d to %d in %d", gpages, gdir, n, d)
	}
	if dir != 1<<20>>idPageBits+1 || pages != 3 || gdir != dir+1 || gpages != 4 {
		t.Fatalf("id tables hold %d pages in a %d directory (locality) and %d in %d (cells), want 3 in %d and 4 in %d",
			pages, dir, gpages, gdir, 1<<20>>idPageBits+1, 1<<20>>idPageBits+2)
	}
}

// TestShardedIndexMatchesGlobal builds a global index and per-shard views
// (locals plus halo ghosts) and checks the boundary-halo pair sweep: on
// every shard, the swept pairs with at least one local endpoint are
// exactly the global index's pairs with an endpoint that shard owns, at
// bit-equal distances — what a single world-wide index would find.
func TestShardedIndexMatchesGlobal(t *testing.T) {
	bounds := NewRect(Point{0, 0}, Point{2000, 2000})
	const r = 250.0
	m, err := NewShardMap(bounds, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	global := mustGrid(t, bounds, r)
	shards := make([]*ShardedIndex, m.NumShards())
	for i := range shards {
		if shards[i], err = NewShardedIndex(bounds, r); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	pts := make(map[int32]Point)
	for i := 0; i < 300; i++ {
		id := int32(i)
		p := Point{rng.Float64() * 2000, rng.Float64() * 2000}
		pts[id] = p
		global.Update(id, p)
		owner := m.ShardOf(p)
		shards[owner].UpdateLocal(id, p)
		for _, s := range m.ShardsNear(nil, p, r) {
			if s != owner {
				shards[s].UpdateGhost(id, p)
			}
		}
	}
	type key struct{ a, b int32 }
	pairSet := func(pairs []Pair, keep func(id int32) bool) map[key]float64 {
		set := make(map[key]float64)
		for _, p := range pairs {
			if keep(p.A) || keep(p.B) {
				set[key{min(p.A, p.B), max(p.A, p.B)}] = p.D2
			}
		}
		return set
	}
	globalPairs := sweepPairs(global.Rows(), global.RowPairs, r)
	cross := 0
	for i, s := range shards {
		got := pairSet(sweepPairs(s.Rows(), s.RowPairs, r), s.IsLocal)
		want := pairSet(globalPairs, func(id int32) bool { return m.ShardOf(pts[id]) == i })
		if len(got) != len(want) {
			t.Fatalf("shard %d: %d pairs with a local endpoint, global index has %d", i, len(got), len(want))
		}
		for k, d2 := range want {
			if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(d2) {
				t.Fatalf("shard %d: pair %v has D2 %v (present %v), global %v", i, k, g, ok, d2)
			}
			if m.ShardOf(pts[k.a]) != m.ShardOf(pts[k.b]) {
				cross++
			}
		}
	}
	if cross == 0 {
		t.Fatal("no pair crosses a shard border; the halo path is untested")
	}
}
