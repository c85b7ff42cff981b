package vnet

import (
	"math"
	"math/rand"
	"slices"
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
	// Write beacons straight into the table at varied times.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		from := Addr(rng.Intn(20) + 100)
		n.hear(&Beacon{From: from}, k.Now())
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
				n.hear(&b, k.Now())
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
			n.hear(b, r.k.Now())
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

// findProgram is one run of the finger-search check: a universe of
// sender addresses (vehicle ids with gaps and RSUs from 1<<20 up) and a
// byte program of beacon cycles, first sightings, clock advances and
// reads against one node's table.
type findProgram struct {
	seed int64
	size uint8
	prog []byte
}

// findCoverage counts where each reception's search started, so a test
// can require that the programs reached every branch of find.
type findCoverage struct {
	hits, ahead, behind, wrapped   int // finger on, before and past the sender's row; finger off the end
	insertAhead, insertBehind, rsu int // first-seen rows after and at-or-before the finger; RSU senders heard
}

// findSeeds are FuzzNeighborFind's seed corpus: a lossless convoy, a lossy
// city, shuffled and descending periods, churn of first-seen senders and
// expiry between them.
var findSeeds = []findProgram{
	{1, 120, []byte{0x00, 0x00, 0x00, 0x00}},
	{2, 40, []byte{0xa0, 0xa0, 0x24, 0xa0, 0x3c, 0xa0, 0xa0}},
	{3, 30, []byte{0x01, 0x01, 0x05, 0x00, 0x0e, 0x01}},
	{4, 25, []byte{0x02, 0x00, 0x03, 0x43, 0x83, 0xc3, 0x00, 0x07, 0x26, 0x02}},
	{5, 16, []byte{0x00, 0x03, 0x0b, 0x13, 0x1b, 0x00, 0xfc, 0x00, 0x33, 0x60, 0x06, 0x3d}},
	{6, 3, []byte{0x00, 0x04, 0x03, 0x00, 0x01, 0x05, 0x02}},
}

// check runs p against sort.Search over the node's keys: the search each
// reception makes, and after every operation a probe at each key, next to
// it and at both ends of the address space. It also holds the rows to a
// map model of the last sighting, so that reads and compactions between
// receptions are checked too.
func (p findProgram) check(t testing.TB) findCoverage {
	t.Helper()
	const ttl = 3 * time.Second
	r := newRig(t, p.seed)
	k, n := r.k, r.staticNode(t, 1<<21, geo.Point{}, Config{NeighborTTL: ttl})
	rng := rand.New(rand.NewSource(p.seed))
	var cov findCoverage

	var universe []Addr
	for a := Addr(rng.Intn(4)); len(universe) < 1+int(p.size)%160; a++ {
		if rng.Intn(3) == 0 {
			a += Addr(rng.Intn(50)) // the ids of vehicles that left
		}
		universe = append(universe, a)
	}
	for j := rng.Intn(4); j > 0; j-- {
		universe = append(universe, Addr(1<<20+rng.Intn(64)))
	}
	slices.Sort(universe)
	universe = slices.Compact(universe)
	seen := make(map[Addr]sim.Time)

	probe := func(addr Addr) {
		t.Helper()
		want := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= addr })
		got, ok := n.find(addr)
		if got != want || ok != (want < len(n.keys) && n.keys[want] == addr) {
			t.Fatalf("seed %d: find(%d) = %d, %v with finger %d over keys %v; want %d", p.seed, addr, got, ok, n.finger, n.keys, want)
		}
	}
	hear := func(addr Addr) {
		t.Helper()
		probe(addr)
		at, known := n.find(addr)
		switch f := n.finger; {
		case len(n.keys) == 0:
		case f >= len(n.keys):
			cov.wrapped++
		case n.keys[f] == addr:
			cov.hits++
		case n.keys[f] < addr:
			cov.ahead++
		default:
			cov.behind++
		}
		if !known && at > n.finger {
			cov.insertAhead++
		} else if !known {
			cov.insertBehind++
		}
		if addr >= 1<<20 {
			cov.rsu++
		}
		n.hear(&Beacon{From: addr}, k.Now())
		seen[addr] = k.Now()
		if i, ok := slices.BinarySearch(n.keys, addr); !ok || n.finger != i+1 {
			t.Fatalf("seed %d: after hearing %d the finger is %d over keys %v", p.seed, addr, n.finger, n.keys)
		}
	}
	advance := func(d sim.Time) {
		t.Helper()
		if err := k.Run(k.Now() + d); err != nil {
			t.Fatal(err)
		}
	}
	// cycle is one beacon period: every sender of order transmits once,
	// evenly spread, and each reception is lost with probability loss.
	cycle := func(order []Addr, loss float64) {
		step := ttl / 3 / sim.Time(len(order))
		for _, a := range order {
			if rng.Float64() >= loss {
				hear(a)
			}
			advance(step)
		}
	}

	for _, b := range p.prog {
		op, x, finger := b&7, int(b>>3), n.finger
		switch op {
		case 0: // ascending phase order, x/32 of receptions lost
			cycle(universe, float64(x)/32)
		case 1: // a fresh random order: the finger's worst case
			order := slices.Clone(universe)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			cycle(order, float64(x)/32)
		case 2: // descending: every search lands behind the finger
			order := slices.Clone(universe)
			slices.Reverse(order)
			cycle(order, float64(x)/32)
		case 3: // a sender heard for the first time, in or beside the universe
			if x%2 == 0 {
				hear(Addr(rng.Intn(int(universe[len(universe)-1]) + 2)))
			} else {
				hear(Addr(1<<20 + rng.Intn(64)))
			}
		case 4: // the clock moves on, possibly past every row's TTL
			advance(sim.Time(x) * ttl / 8)
		case 5: // the compacting read; no read moves the finger
			rows := n.Rows()
			for i, row := range rows {
				if row.Beacon.From != n.keys[i] || k.Now()-seen[n.keys[i]] > ttl || row.LastSeen != seen[n.keys[i]] {
					t.Fatalf("seed %d: Rows()[%d] = %+v, key %d, last heard %v", p.seed, i, row, n.keys[i], seen[n.keys[i]])
				}
			}
		case 6: // the point read
			addr := universe[x%len(universe)]
			at, heard := seen[addr]
			live := heard && k.Now()-at <= ttl
			if nb, ok := n.Neighbor(addr); ok != live || ok && nb.LastSeen != at {
				t.Fatalf("seed %d: Neighbor(%d) = %+v, %v; last heard %v, live %v", p.seed, addr, nb, ok, at, live)
			}
		case 7: // the counting read
			live := 0
			for _, at := range seen {
				if k.Now()-at <= ttl {
					live++
				}
			}
			if got := n.NumNeighbors(); got != live {
				t.Fatalf("seed %d: NumNeighbors = %d, %d senders live", p.seed, got, live)
			}
		}
		if op >= 5 && n.finger != finger {
			t.Fatalf("seed %d: a read moved the finger from %d to %d", p.seed, finger, n.finger)
		}
		for i, key := range n.keys {
			if i > 0 && n.keys[i-1] >= key {
				t.Fatalf("seed %d: keys out of order: %v", p.seed, n.keys)
			}
			probe(key)
			probe(key - 1)
			probe(key + 1)
		}
		probe(math.MinInt32)
		probe(math.MaxInt32)
	}
	return cov
}

// TestNeighborFindCoversTheCases: the seed corpus reaches every branch of
// the finger search, so the fuzz target's plain run checks each of them.
func TestNeighborFindCoversTheCases(t *testing.T) {
	var cov findCoverage
	for _, p := range findSeeds {
		c := p.check(t)
		cov.hits += c.hits
		cov.ahead += c.ahead
		cov.behind += c.behind
		cov.wrapped += c.wrapped
		cov.insertAhead += c.insertAhead
		cov.insertBehind += c.insertBehind
		cov.rsu += c.rsu
	}
	if cov.hits == 0 || cov.ahead == 0 || cov.behind == 0 || cov.wrapped == 0 || cov.insertAhead == 0 || cov.insertBehind == 0 || cov.rsu == 0 {
		t.Errorf("the seed programs missed a case: %+v", cov)
	}
}

// FuzzNeighborFind: whatever order beacons arrive in, and whatever reads,
// expiries and first sightings come between them, the finger search
// returns exactly the lower bound a binary search of the keys would.
func FuzzNeighborFind(f *testing.F) {
	for _, p := range findSeeds {
		f.Add(p.seed, p.size, p.prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		findProgram{seed, size, prog}.check(t)
	})
}

// TestBeaconsAreNotSharedAcrossTransmissions: tables point into the
// beacon that went on air, so each transmission must carry its own — a
// receiver that missed the second still holds the first, and a receiver
// that heard both points at two different beacons — and the copying reads
// must hand out nothing that aliases it.
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
	var held []*Beacon // the beacon b's row points at after each send
	send := func() {
		t.Helper()
		s.sendBeacon()
		if err := r.k.Run(r.k.Now() + 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if rows := b.Rows(); len(rows) == 1 {
			held = append(held, rows[0].Beacon)
		}
	}
	send()
	if got := a.NumNeighbors(); got != 1 {
		t.Fatalf("a holds %d rows after the first beacon, want 1", got)
	}
	first := Neighbor{Addr: 9, Pos: pos, Ext: 1, LastSeen: a.Rows()[0].LastSeen}
	if got, ok := a.Neighbor(9); !ok || got != first {
		t.Fatalf("a after the first beacon: %+v, %v; want %+v", got, ok, first)
	}

	r.m.Faults().Crash(1)
	pos, ext = geo.Point{X: 1010, Y: 1000}, 2
	send()
	if got, _ := a.Neighbor(9); got != first {
		t.Errorf("a missed the second beacon yet reports %+v, want the first's %+v", got, first)
	}
	if got, _ := b.Neighbor(9); got.Pos != pos || got.Ext != 2 {
		t.Errorf("b heard the second beacon yet reports %+v", got)
	}
	if len(held) != 2 || held[0] == held[1] || held[0].Pos == held[1].Pos || held[0].Ext != 1 || held[1].Ext != 2 {
		t.Errorf("b's row pointed at %+v across the two sends", held)
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
// 100..100+neighbors-1, and a fresh beacon from one of them. The node
// beacons nothing itself and the clock stands still, so every row stays
// live.
func tableRig(t testing.TB, neighbors int) (*Node, *Beacon) {
	r := newRig(t, 1)
	n := r.staticNode(t, 1, geo.Point{X: 1000, Y: 1000}, Config{})
	for i := 0; i < neighbors; i++ {
		from := Addr(100 + i)
		n.hear(&Beacon{From: from, Pos: geo.Point{X: float64(i)}, Ext: i}, 0)
	}
	from := Addr(100 + neighbors/2)
	return n, &Beacon{From: from, Speed: 3, Ext: 7}
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
		"hear known neighbor": func() { n.hear(known, 0) },
		"Neighbors(scratch)":  func() { scratch = n.Neighbors(scratch[:0]); rows = len(scratch) },
		"Rows":                func() { inPlace = len(n.Rows()) },
		"NumNeighbors":        func() { count = n.NumNeighbors() },
		"Neighbor":            func() { _, found = n.Neighbor(known.From) },
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
		n.hear(known, 0)
	}
}

// BenchmarkReceiveBeaconColdTables is the city-scale shape
// BenchmarkReceiveBeacon cannot see: 1000 tables of 50 rows, receptions
// round-robin across them, so no table is still in the near cache when
// its turn comes round.
func BenchmarkReceiveBeaconColdTables(b *testing.B) {
	r := newRig(b, 1)
	nodes := make([]*Node, 1000)
	beacons := make([]*Beacon, 50)
	for i := range beacons {
		beacons[i] = &Beacon{From: Addr(5000 + i), Pos: geo.Point{X: float64(i)}, Ext: i}
	}
	for i := range nodes {
		nodes[i] = r.staticNode(b, Addr(i), geo.Point{}, Config{})
		for _, bc := range beacons {
			nodes[i].hear(bc, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%len(nodes)].hear(beacons[i/len(nodes)%len(beacons)], 0)
	}
}

// benchReceiveCycles measures receptions in a convoy of 120 vehicles
// that all beacon, each in range of the 70 places ahead of and behind it:
// 99 neighbours a table on average, as cloud_storm's tables hold about
// 100, so no two tables are alike. Each period the senders transmit in
// the order order leaves them in, each to every vehicle in range, and
// each reception is lost with probability loss. The tables start full and
// the clock stands still, so no row expires.
func benchReceiveCycles(b *testing.B, loss float64, order func(rng *rand.Rand, senders []int)) {
	const fleet, reach, periods = 120, 70, 8
	r := newRig(b, 1)
	rng := rand.New(rand.NewSource(1))
	nodes := make([]*Node, fleet)
	beacons := make([]*Beacon, fleet)
	senders := make([]int, fleet)
	for i := range nodes {
		nodes[i] = r.staticNode(b, Addr(i), geo.Point{}, Config{})
		beacons[i] = &Beacon{From: Addr(i), Pos: geo.Point{X: float64(i)}, Ext: i}
		senders[i] = i
	}
	inRange := func(i, j int) bool { return i != j && i-j <= reach && j-i <= reach }
	for i, n := range nodes {
		for j, bc := range beacons {
			if inRange(i, j) {
				n.hear(bc, 0)
			}
		}
	}
	type rx struct {
		n *Node
		b *Beacon
	}
	var rxs []rx
	for range periods {
		order(rng, senders)
		for _, s := range senders {
			for i, n := range nodes {
				if inRange(i, s) && rng.Float64() >= loss {
					rxs = append(rxs, rx{n, beacons[s]})
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := rxs[i%len(rxs)]
		x.n.hear(x.b, 0)
	}
}

// BenchmarkReceiveBeaconConvoy: every sender heard every period, in
// ascending phase order: each search is a finger hit.
func BenchmarkReceiveBeaconConvoy(b *testing.B) {
	benchReceiveCycles(b, 0, func(*rand.Rand, []int) {})
}

// BenchmarkReceiveBeaconLossy: the convoy with 60 % of receptions lost,
// the city's delivery ratio: each search gallops over the rows it missed.
func BenchmarkReceiveBeaconLossy(b *testing.B) {
	benchReceiveCycles(b, 0.6, func(*rand.Rand, []int) {})
}

// BenchmarkReceiveBeaconShuffled: a fresh random sender order every
// period, the finger's worst case.
func BenchmarkReceiveBeaconShuffled(b *testing.B) {
	benchReceiveCycles(b, 0, func(rng *rand.Rand, s []int) {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	})
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
