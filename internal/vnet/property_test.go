package vnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

// TestSeenDedupProperty: over any message stream, Seen returns true for
// a message iff the same (origin, seq) was recorded within the dedup
// window capacity; the table never exceeds its capacity.
func TestSeenDedupProperty(t *testing.T) {
	k := sim.NewKernel(1)
	bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	f := func(raw []uint16, cap8 uint8) bool {
		capacity := int(cap8%32) + 4
		n, err := NewNode(k, m, Addr(rng.Int31()), Config{DedupCapacity: capacity},
			func() (geo.Point, float64, float64) { return geo.Point{}, 0, 0 })
		if err != nil {
			return false
		}
		// Reference model: an ordered list of recorded keys bounded by
		// capacity (FIFO eviction).
		type key struct {
			o Addr
			s uint32
		}
		var order []key
		inModel := func(x key) bool {
			for _, e := range order {
				if e == x {
					return true
				}
			}
			return false
		}
		for _, r := range raw {
			x := key{Addr(r % 5), uint32(r%11) + 1}
			msg := Message{Origin: x.o, Seq: x.s}
			got := n.Seen(msg)
			want := inModel(x)
			if got != want {
				return false
			}
			if !want {
				order = append(order, x)
				if len(order) > capacity {
					order = order[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestNeighborTableNeverReturnsExpiredProperty: rows older than the TTL
// are never visible through Neighbors or Neighbor.
func TestNeighborTableNeverReturnsExpiredProperty(t *testing.T) {
	k := sim.NewKernel(2)
	bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(k, m, 1, Config{NeighborTTL: 2 * time.Second},
		func() (geo.Point, float64, float64) { return geo.Point{}, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	// Inject beacons directly through the receive path at varied times.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		from := Addr(rng.Intn(20) + 100)
		n.receive(radio.Frame{From: radio.NodeID(from), Payload: &Beacon{From: from}})
		k.After(sim.Time(rng.Intn(500))*time.Millisecond, func() {})
		k.Run(k.Now() + sim.Time(rng.Intn(500))*time.Millisecond)
		for _, nb := range n.Neighbors(nil) {
			if k.Now()-nb.LastSeen > 2*time.Second {
				t.Fatalf("expired neighbor %d visible (age %v)", nb.Addr, k.Now()-nb.LastSeen)
			}
		}
	}
}

// TestNeighborTableMatchesMapModel drives random beacon arrivals, clock
// advances and reads — copying and in place, in any order between
// receptions — against the plain map-plus-sort table the sorted array
// replaced. The clock moves in steps that divide the TTL, so rows sit
// exactly at the TTL edge (age == TTL is live, one step more is gone) and
// senders come back after expiring.
func TestNeighborTableMatchesMapModel(t *testing.T) {
	const (
		ttl  = 2 * time.Second
		step = 500 * time.Millisecond
	)
	for seed := int64(1); seed <= 20; seed++ {
		r := newRig(t, seed)
		k, n := r.k, r.staticNode(t, 1, geo.Point{}, Config{NeighborTTL: ttl})
		rng := rand.New(rand.NewSource(seed))
		model := make(map[Addr]Neighbor)
		live := func() []Neighbor {
			var rows []Neighbor
			for _, nb := range model {
				if k.Now()-nb.LastSeen <= ttl {
					rows = append(rows, nb)
				}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].Addr < rows[j].Addr })
			return rows
		}
		sentinel := Neighbor{Addr: -7}
		scratch := []Neighbor{sentinel}
		for op := 0; op < 2000; op++ {
			switch rng.Intn(7) {
			case 0, 1, 2:
				b := Beacon{
					From:    Addr(rng.Intn(24) + 100),
					Pos:     geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
					Speed:   rng.Float64() * 30,
					Heading: rng.Float64() * 6,
				}
				if rng.Intn(3) > 0 {
					b.Ext = rng.Intn(1000)
				}
				n.receive(radio.Frame{From: b.From, Payload: &b})
				model[b.From] = Neighbor{Addr: b.From, Pos: b.Pos, Speed: b.Speed,
					Heading: b.Heading, Ext: b.Ext, LastSeen: k.Now()}
			case 3:
				if err := k.Run(k.Now() + sim.Time(rng.Intn(6))*step); err != nil {
					t.Fatal(err)
				}
			case 4:
				addr := Addr(rng.Intn(24) + 100)
				want, wantOK := model[addr]
				if wantOK = wantOK && k.Now()-want.LastSeen <= ttl; !wantOK {
					want = Neighbor{}
				}
				if got, ok := n.Neighbor(addr); ok != wantOK || got != want {
					t.Fatalf("seed %d op %d: Neighbor(%d) = %+v, %v; model %+v, %v", seed, op, addr, got, ok, want, wantOK)
				}
			case 5:
				want := live()
				if got := n.NumNeighbors(); got != len(want) {
					t.Fatalf("seed %d op %d: NumNeighbors = %d, model %d", seed, op, got, len(want))
				}
				scratch = n.Neighbors(scratch[:1])
				if scratch[0] != sentinel {
					t.Fatalf("seed %d op %d: Neighbors overwrote dst's prefix", seed, op)
				}
				got := scratch[1:]
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: Neighbors returned %d rows, model %d", seed, op, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: row %d = %+v, model %+v", seed, op, i, got[i], want[i])
					}
					// Rows are copies: scribbling on one must not reach the table.
					got[i].Pos.X = -1
				}
			case 6:
				// The in-place read, first to touch the table since the
				// last clock advance as often as not: it must compact
				// expired rows itself.
				want, got := live(), n.Rows()
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: Rows returned %d rows, model %d", seed, op, len(got), len(want))
				}
				for i := range want {
					if nb := got[i].neighbor(); nb != want[i] {
						t.Fatalf("seed %d op %d: Rows()[%d] = %+v, model %+v", seed, op, i, nb, want[i])
					}
				}
			}
		}
	}
}

// TestUnreadTableStaysBounded: a node nothing reads (an RSU, a parked
// node with no cluster runner or router) hears a stream of passers-by.
// Only reads used to expire rows, so its table kept one row per address
// ever heard; now an insert that would grow the table compacts it first.
// Neighbor does not compact, so checking it throughout leaves the table
// unread in the sense that matters.
func TestUnreadTableStaysBounded(t *testing.T) {
	r := newRig(t, 1)
	n := r.staticNode(t, 1, geo.Point{}, Config{}) // NeighborTTL defaults to 3 s
	model := make(map[Addr]Neighbor)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		// One passer-by a second, never heard again, and a regular that
		// keeps refreshing its row.
		for _, from := range []Addr{Addr(100 + rng.Intn(1<<20)), 7} {
			b := &Beacon{From: from, Pos: geo.Point{X: float64(i)}, Ext: i}
			n.receive(radio.Frame{From: from, Payload: b})
			model[from] = Neighbor{Addr: from, Pos: b.Pos, Ext: i, LastSeen: r.k.Now()}
		}
		if len(n.rows) > 24 || len(n.keys) != len(n.rows) {
			t.Fatalf("after %d s: %d rows, %d keys for at most 5 live senders", i, len(n.rows), len(n.keys))
		}
		for addr, want := range model {
			live := r.k.Now()-want.LastSeen <= 3*time.Second
			if !live {
				want = Neighbor{}
				delete(model, addr)
			}
			if got, ok := n.Neighbor(addr); ok != live || got != want {
				t.Fatalf("after %d s: Neighbor(%d) = %+v, %v; model %+v, %v", i, addr, got, ok, want, live)
			}
		}
		if err := r.k.Run(r.k.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	got := n.Neighbors(nil)
	if len(got) != 4 || got[0] != model[7] {
		t.Fatalf("final read: %d rows, first %+v; model has the regular and three passers-by", len(got), got)
	}
	for i, nb := range got {
		if nb != model[nb.Addr] || (i > 0 && got[i-1].Addr >= nb.Addr) {
			t.Errorf("final read row %d = %+v, model %+v", i, nb, model[nb.Addr])
		}
	}
}

// TestBeaconsAreNotSharedAcrossTransmissions: tables point into the
// beacon that went on air, so each transmission must carry its own — a
// receiver that missed the second still holds the first — and the copying
// reads must hand out nothing that aliases it.
func TestBeaconsAreNotSharedAcrossTransmissions(t *testing.T) {
	r := newRig(t, 1)
	pos, ext := geo.Point{X: 1000, Y: 1000}, 1
	r.m.UpdatePosition(9, pos)
	s, err := NewNode(r.k, r.m, 9, Config{}, func() (geo.Point, float64, float64) { return pos, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	s.SetBeaconExt(func() any { return ext })
	a := r.staticNode(t, 1, geo.Point{X: 1050, Y: 1000}, Config{})
	b := r.staticNode(t, 2, geo.Point{X: 1000, Y: 1050}, Config{})
	var observed []Beacon
	b.OnBeacon(func(bc Beacon) { observed = append(observed, bc) })
	send := func() {
		t.Helper()
		s.sendBeacon()
		if err := r.k.Run(r.k.Now() + 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if len(a.rows) != 1 {
		t.Fatalf("a holds %d rows after the first beacon, want 1", len(a.rows))
	}
	first := Neighbor{Addr: 9, Pos: pos, Ext: 1, LastSeen: a.rows[0].LastSeen}
	if got, ok := a.Neighbor(9); !ok || got != first {
		t.Fatalf("a after the first beacon: %+v, %v; want %+v", got, ok, first)
	}

	r.m.SetBlocked(func(_, to radio.NodeID) bool { return to == 1 })
	pos, ext = geo.Point{X: 1010, Y: 1000}, 2
	send()
	if got, _ := a.Neighbor(9); got != first {
		t.Errorf("a missed the second beacon yet reports %+v, want the first's %+v", got, first)
	}
	if got, _ := b.Neighbor(9); got.Pos != pos || got.Ext != 2 {
		t.Errorf("b heard the second beacon yet reports %+v", got)
	}
	if len(observed) != 2 || observed[0].Pos == observed[1].Pos || observed[1].Ext != 2 {
		t.Errorf("b's observer saw %+v", observed)
	}

	b.Neighbors(nil)[0].Pos.X = -1
	if got, _ := b.Neighbor(9); got.Pos != pos {
		t.Errorf("scribbling on a returned row reached b's table: %+v", got)
	}
	if got, _ := a.Neighbor(9); got != first {
		t.Errorf("scribbling on b's rows reached a: %+v", got)
	}
}

// TestSeenEvictsZeroKey: (origin 0, seq 0) is a legitimate key and is
// evicted like any other once capacity newer keys have arrived.
func TestSeenEvictsZeroKey(t *testing.T) {
	r := newRig(t, 1)
	a := r.staticNode(t, 1, geo.Point{X: 1000, Y: 1000}, Config{DedupCapacity: 4})
	if a.Seen(Message{}) {
		t.Fatal("zero key seen before it was recorded")
	}
	for seq := uint32(1); seq <= 4; seq++ {
		a.Seen(Message{Origin: 9, Seq: seq})
	}
	if a.Seen(Message{}) {
		t.Error("zero key survived capacity newer keys")
	}
	if len(a.seen) > 4 {
		t.Errorf("dedup table grew to %d, cap 4", len(a.seen))
	}
}

// tableRig returns a node whose table holds live rows from addresses
// 100..100+neighbors-1, and a frame carrying a fresh beacon from one of
// them. The node beacons nothing itself and the clock stands still, so
// every row stays live.
func tableRig(t testing.TB, neighbors int) (*Node, radio.Frame) {
	r := newRig(t, 1)
	n := r.staticNode(t, 1, geo.Point{X: 1000, Y: 1000}, Config{})
	for i := 0; i < neighbors; i++ {
		from := Addr(100 + i)
		n.receive(radio.Frame{From: from, Payload: &Beacon{From: from, Pos: geo.Point{X: float64(i)}, Ext: i}})
	}
	from := Addr(100 + neighbors/2)
	return n, radio.Frame{From: from, Payload: &Beacon{From: from, Speed: 3, Ext: 7}}
}

// TestNeighborTableAllocFree pins the zero-allocation contract of the
// reception write, of the in-place read and of the copying reads given
// caller-owned scratch.
func TestNeighborTableAllocFree(t *testing.T) {
	n, known := tableRig(t, 50)
	scratch := n.Neighbors(nil)
	var rows, inPlace, count int
	var found bool
	for name, fn := range map[string]func(){
		"receive known neighbor": func() { n.receive(known) },
		"Neighbors(scratch)":     func() { scratch = n.Neighbors(scratch[:0]); rows = len(scratch) },
		"Rows":                   func() { inPlace = len(n.Rows()) },
		"NumNeighbors":           func() { count = n.NumNeighbors() },
		"Neighbor":               func() { _, found = n.Neighbor(known.From) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	if rows != 50 || inPlace != 50 || count != 50 || !found {
		t.Errorf("reads saw rows=%d inPlace=%d count=%d found=%v, want 50, 50, 50, true", rows, inPlace, count, found)
	}
}

var benchSink int

func BenchmarkReceiveBeacon(b *testing.B) {
	n, known := tableRig(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.receive(known)
	}
}

// BenchmarkReceiveBeaconColdTables is the city-scale shape
// BenchmarkReceiveBeacon cannot see: 1000 tables of 50 rows, receptions
// round-robin across them, so no table is still in the near cache when
// its turn comes round.
func BenchmarkReceiveBeaconColdTables(b *testing.B) {
	r := newRig(b, 1)
	nodes := make([]*Node, 1000)
	frames := make([]radio.Frame, 50)
	for i := range frames {
		from := Addr(5000 + i)
		frames[i] = radio.Frame{From: from, Payload: &Beacon{From: from, Pos: geo.Point{X: float64(i)}, Ext: i}}
	}
	for i := range nodes {
		nodes[i] = r.staticNode(b, Addr(i), geo.Point{}, Config{})
		for _, f := range frames {
			nodes[i].receive(f)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%len(nodes)].receive(frames[i/len(nodes)%len(frames)])
	}
}

func BenchmarkNeighborsScratch(b *testing.B) {
	n, _ := tableRig(b, 50)
	scratch := n.Neighbors(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = n.Neighbors(scratch[:0])
	}
	benchSink = len(scratch)
}

func BenchmarkNumNeighbors(b *testing.B) {
	n, _ := tableRig(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = n.NumNeighbors()
	}
}
