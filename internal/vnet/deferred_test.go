package vnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
)

// beaconProgram sizes one run of the deferred-beacon differential: nodes
// static nodes, node 0 beaconing every fast for its first 5 ms — less than
// a beacon's frame delay, so its beacons overlap in flight — and every
// table holding rows for ttl.
type beaconProgram struct {
	seed  int64
	nodes int
	fast  sim.Time
	ttl   sim.Time
}

// arrivalCoverage counts the situations the differential is meant to
// reach, so a test can require that it did.
type arrivalCoverage struct {
	reads           int // table reads checked against the model
	before, after   int // arrivals due at a read's instant, behind it and ahead of it in seq
	twoInFlight     int // hand-overs while the same sender's earlier beacon is in flight
	reordered       int // ... which arrive before that earlier beacon
	stoppedInFlight int // receivers stopped with beacons in flight to them
}

// modelRx is one inbox reception as the model schedules it.
type modelRx struct {
	i int
	b *Beacon
}

// check runs p twice: once to learn when beacons arrive, and once more
// with table reads scheduled at a third of those instants before anything
// else, so that they come ahead of the send in seq order. The medium is
// the same in both runs, and reads change nothing it decides.
func (p beaconProgram) check(t testing.TB) arrivalCoverage {
	t.Helper()
	arrivals, cov := p.run(t, nil)
	var pre []sim.Time
	for i := 0; i < len(arrivals); i += 3 {
		pre = append(pre, arrivals[i])
	}
	_, cov2 := p.run(t, pre)
	cov.reads += cov2.reads
	cov.before += cov2.before
	cov.after += cov2.after
	return cov
}

// run drives the program: beacons from random senders at random instants
// (a quarter of them followed by a second from the same sender 100 µs
// later), node 0's fast ticker, a random node stopped, some receivers
// stopped between a beacon's send and its arrival, and reads of random
// tables at random instants, at instants preReads names and at arrival
// instants right after the send. Every inbox reception is also scheduled
// as its own AtArg into a map-model table, the way it ran before beacons
// became state; every read must equal the model's rows, and Stats() the
// model's Delivered. It returns the arrival instants in hand-over order.
func (p beaconProgram) run(t testing.TB, preReads []sim.Time) ([]sim.Time, arrivalCoverage) {
	t.Helper()
	r := newRig(t, p.seed)
	k, m := r.k, r.m
	rng := rand.New(rand.NewSource(p.seed))
	handRng := rand.New(rand.NewSource(p.seed + 1))
	readRng := rand.New(rand.NewSource(p.seed + 2))
	var cov arrivalCoverage

	nodes := make([]*Node, p.nodes)
	model := make([]map[Addr]Neighbor, p.nodes)
	for i := range nodes {
		pos := geo.Point{X: 1000 + rng.Float64()*400, Y: 1000 + rng.Float64()*100}
		cfg := Config{NeighborTTL: p.ttl}
		if i == 0 {
			cfg.BeaconPeriod = p.fast
		}
		nodes[i] = r.staticNode(t, Addr(i), pos, cfg)
		model[i] = make(map[Addr]Neighbor)
	}
	heard := func(i int, b Beacon) {
		model[i][b.From] = Neighbor{Addr: b.From, Pos: b.Pos, Speed: b.Speed, Heading: b.Heading, Ext: b.Ext, LastSeen: k.Now()}
	}

	// fired counts the model's receptions: what Delivered must read.
	var fired uint64

	read := func() {
		cov.reads++
		now := k.Now()
		for _, i := range readRng.Perm(len(nodes))[:1+readRng.Intn(3)] {
			n := nodes[i]
			for _, a := range n.inbox {
				if a.at == now {
					if k.Reached(a.at, a.mark) {
						cov.after++
					} else {
						cov.before++
					}
				}
			}
			var want []Neighbor
			for _, nb := range model[i] {
				if now-nb.LastSeen <= p.ttl {
					want = append(want, nb)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].Addr < want[b].Addr })
			var got []Neighbor
			switch readRng.Intn(4) {
			case 0:
				got = n.Neighbors(nil)
			case 1:
				if c := n.NumNeighbors(); c != len(want) {
					t.Fatalf("seed %d at %v: node %d NumNeighbors = %d, model %d", p.seed, now, i, c, len(want))
				}
				continue
			case 2:
				for _, row := range n.Rows() {
					got = append(got, row.neighbor())
				}
			case 3:
				addr := Addr(readRng.Intn(len(nodes)))
				nb, ok := n.Neighbor(addr)
				w, wok := model[i][addr]
				if wok = wok && now-w.LastSeen <= p.ttl; !wok {
					w = Neighbor{}
				}
				if ok != wok || nb != w {
					t.Fatalf("seed %d at %v: node %d Neighbor(%d) = %+v, %v; model %+v, %v", p.seed, now, i, addr, nb, ok, w, wok)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d at %v: node %d reads %d rows, model %d:\n got %+v\nwant %+v", p.seed, now, i, len(got), len(want), got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("seed %d at %v: node %d row %d = %+v, model %+v", p.seed, now, i, j, got[j], want[j])
				}
			}
		}
		if got, want := m.Stats().Delivered, fired; got != want {
			t.Fatalf("seed %d at %v: Stats().Delivered = %d, model %d", p.seed, now, got, want)
		}
	}
	for _, at := range preReads {
		k.At(at, read)
	}

	fire := func(a any) {
		rx := a.(*modelRx)
		fired++
		if !nodes[rx.i].stopped {
			heard(rx.i, *rx.b)
		}
	}
	var arrivals []sim.Time
	for i, n := range nodes {
		m.Register(n.addr, n.receive, func(payload any, at sim.Time, mark uint64) {
			b := payload.(*Beacon)
			n.arrive(payload, at, mark)
			for _, a := range n.inbox {
				if a.b != b && a.b.From == b.From {
					cov.twoInFlight++
					if a.at > at {
						cov.reordered++
					}
				}
			}
			k.AtArg(at, fire, &modelRx{i, b})
			arrivals = append(arrivals, at)
			switch handRng.Intn(48) {
			case 0, 1, 2, 3, 4, 5:
				k.At(at, read)
			case 6:
				k.At(k.Now()+(at-k.Now())/2, func() {
					if !n.stopped && len(n.inbox) > 0 {
						cov.stoppedInFlight++
					}
					n.Stop()
				})
			}
		})
	}

	if err := nodes[0].Start(); err != nil {
		t.Fatal(err)
	}
	k.At(5*time.Millisecond, nodes[0].ticker.Stop)
	for j := 0; j < 200; j++ {
		at := sim.Time(rng.Intn(80000)) * time.Microsecond
		n := nodes[rng.Intn(len(nodes))]
		k.At(at, n.sendBeacon)
		if rng.Intn(4) == 0 {
			k.At(at+100*time.Microsecond, n.sendBeacon)
		}
	}
	k.At(sim.Time(rng.Intn(80000))*time.Microsecond, nodes[rng.Intn(len(nodes))].Stop)
	for j := 0; j < 300; j++ {
		k.At(sim.Time(rng.Intn(90000))*time.Microsecond, read)
	}
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for range 4 * len(nodes) {
		read()
	}
	return arrivals, cov
}

// TestDeferredBeaconsMatchEventModel: a beacon that reaches a node's inbox
// is applied to its table only when the table is next touched, yet every
// read — Neighbors, NumNeighbors, Rows, Neighbor — must see exactly the
// rows it saw when each reception was its own kernel event, and
// Stats().Delivered must count exactly the receptions those events would
// have fired, including reads at an arrival's own instant on either side
// of the send in seq order, receivers stopped while beacons are in flight
// to them, and two beacons of one sender in flight at once and arriving
// out of order.
func TestDeferredBeaconsMatchEventModel(t *testing.T) {
	var cov arrivalCoverage
	for seed := int64(1); seed <= 12; seed++ {
		c := beaconProgram{
			seed:  seed,
			nodes: 4 + int(seed)%9,
			fast:  sim.Time(200+50*seed) * time.Microsecond,
			ttl:   sim.Time(1+seed*3) * time.Millisecond,
		}.check(t)
		cov.reads += c.reads
		cov.before += c.before
		cov.after += c.after
		cov.twoInFlight += c.twoInFlight
		cov.reordered += c.reordered
		cov.stoppedInFlight += c.stoppedInFlight
	}
	if cov.reads < 1000 || cov.before == 0 || cov.after == 0 || cov.twoInFlight == 0 || cov.reordered == 0 || cov.stoppedInFlight == 0 {
		t.Errorf("the programs missed a case: %+v", cov)
	}
}

// FuzzBeaconArrivals runs the differential on arbitrary programs.
func FuzzBeaconArrivals(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(300), uint8(20))
	f.Add(int64(7), uint8(2), uint16(50), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, fastUs uint16, ttlMs uint8) {
		beaconProgram{
			seed:  seed,
			nodes: 3 + int(nodes)%10,
			fast:  sim.Time(50+int(fastUs)%2000) * time.Microsecond,
			ttl:   sim.Time(1+int(ttlMs)%50) * time.Millisecond,
		}.check(t)
	})
}

// TestBeaconRoundAllocs: with tables and inboxes warm, a beacon to ten
// inbox receivers, the run past its arrivals and a read of every table
// allocate the beacon and nothing else.
func TestBeaconRoundAllocs(t *testing.T) {
	r := newRig(t, 1)
	s := r.staticNode(t, 100, geo.Point{X: 1000, Y: 1000}, Config{})
	var nodes []*Node
	for i := range 10 {
		nodes = append(nodes, r.staticNode(t, Addr(i), geo.Point{X: 1010 + float64(i)*10, Y: 1000}, Config{}))
	}
	round := func() {
		s.sendBeacon()
		if err := r.k.Run(r.k.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			n.NumNeighbors()
		}
	}
	for range 10 {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 1 {
		t.Errorf("a warm beacon round allocated %v times, want 1 (the *Beacon)", allocs)
	}
	for i, n := range nodes {
		if nb, ok := n.Neighbor(100); !ok || nb.LastSeen >= r.k.Now() {
			t.Errorf("node %d: Neighbor(100) = %+v, %v after the rounds", i, nb, ok)
		}
	}
}
