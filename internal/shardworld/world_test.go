package shardworld

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

func testConfig(seed int64, shards int) Config {
	cfg := DefaultConfig(seed, shards)
	cfg.Vehicles = 120
	cfg.Ticks = 48
	cfg.SampleEvery = 12
	cfg.WorldSize = 2400
	return cfg
}

// Storm-draw tags: one per independent episode parameter, so every
// drawn episode's shape is a pure function of (seed, episode, tag).
const (
	drawFleet   = 0x11
	drawTicks   = 0x23
	drawChurn   = 0x37
	drawOutageX = 0x41
	drawOutageY = 0x43
	drawOutageW = 0x47
	drawOutageT = 0x53
)

// drawnEpisode draws storm episode ep of seed at 4 shards from named
// hash streams: fleet and length grow on their bases by up to half,
// churn lies in [0.1, 0.4), and a roaming outage a third of the world
// across silences beacons for a stretch of the run. The stream names are
// fixed labels: renaming one redraws every episode.
func drawnEpisode(seed int64, ep, vehicles, ticks int) Config {
	useed, e := uint64(sim.SubSeed(seed, "chaos/shardsoak")), uint64(ep)
	cfg := DefaultConfig(sim.SubSeed(seed, fmt.Sprintf("chaos/shardsoak/%d", ep)), 4)
	cfg.Vehicles = vehicles + int(sim.HashUnit(useed, drawFleet, e)*float64(vehicles)/2)
	cfg.Ticks = ticks + int(sim.HashUnit(useed, drawTicks, e)*float64(ticks)/2)
	cfg.SampleEvery = cfg.Ticks / 4
	cfg.ChurnFrac = 0.1 + 0.3*sim.HashUnit(useed, drawChurn, e)

	w := cfg.WorldSize
	side := w / 3
	ox := sim.HashUnit(useed, drawOutageX, e) * (w - side)
	oy := sim.HashUnit(useed, drawOutageY, e) * (w - side)
	from := 1 + int(sim.HashUnit(useed, drawOutageT, e)*float64(cfg.Ticks)/3)
	span := cfg.Ticks/4 + int(sim.HashUnit(useed, drawOutageW, e)*float64(cfg.Ticks)/4)
	cfg.Outage = &Outage{
		Rect:     geo.NewRect(geo.Point{X: ox, Y: oy}, geo.Point{X: ox + side, Y: oy + side}),
		FromTick: from,
		ToTick:   from + span,
	}
	return cfg
}

// TestShardedMatchesSerial is the tentpole contract: the world's model
// output is byte-for-byte identical at 1, 2, 4 and 8 shards, including
// under churn and a beacon outage. The drawn family adds seeded storm
// episodes, each at 4 shards against 1: seeds 1-3 three episodes each on
// a 96-vehicle, 48-tick base, and seed 7 five on an 84-vehicle base.
// Shard workers are one of the two goroutine sites (fanout.Each is the
// other), so under -race this is the test that would catch a data race
// in the cross-shard protocol.
func TestShardedMatchesSerial(t *testing.T) {
	variants := map[string]func(*Config){
		"plain": func(*Config) {},
		"churn": func(c *Config) { c.ChurnFrac = 0.3 },
		"churn+outage": func(c *Config) {
			c.ChurnFrac = 0.25
			c.Outage = &Outage{
				Rect:     geo.NewRect(geo.Point{X: 600, Y: 600}, geo.Point{X: 1800, Y: 1800}),
				FromTick: 10,
				ToTick:   30,
			}
		},
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			base := testConfig(11, 1)
			mutate(&base)
			serial, err := Run(base)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if serial.Radio.Delivered == 0 {
				t.Fatal("serial run delivered nothing; scenario too sparse to prove anything")
			}
			want := serial.Comparable()
			for _, shards := range []int{2, 4, 8} {
				cfg := testConfig(11, shards)
				mutate(&cfg)
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if got.Comparable() != want {
					t.Fatalf("%d shards diverged from serial:\n--- serial ---\n%s--- sharded ---\n%s",
						shards, want, got.Comparable())
				}
				if got.Checksum != serial.Checksum {
					t.Fatalf("%d shards: checksum %x != serial %x", shards, got.Checksum, serial.Checksum)
				}
				if shards > 1 && got.CrossEvents == 0 {
					t.Fatalf("%d shards exchanged no cross events; borders never exercised", shards)
				}
			}
		})
	}
	t.Run("drawn", func(t *testing.T) {
		var cross, delivered uint64
		var handoffs int64
		for _, fam := range []struct {
			seed               int64
			episodes, vehicles int
		}{{1, 3, 96}, {2, 3, 96}, {3, 3, 96}, {7, 5, 84}} {
			for ep := 0; ep < fam.episodes; ep++ {
				cfg := drawnEpisode(fam.seed, ep, fam.vehicles, 48)
				sharded, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d episode %d: sharded run: %v", fam.seed, ep, err)
				}
				cfg.Shards = 1
				serial, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed %d episode %d: serial run: %v", fam.seed, ep, err)
				}
				if sharded.Comparable() != serial.Comparable() {
					t.Errorf("seed %d episode %d: 4 shards diverged from serial (checksum %016x != %016x)",
						fam.seed, ep, sharded.Checksum, serial.Checksum)
				}
				cross += sharded.CrossEvents
				handoffs += sharded.Handoffs
				delivered += sharded.Radio.Delivered
			}
		}
		if cross == 0 || handoffs == 0 || delivered == 0 {
			t.Errorf("drawn episodes: %d cross events, %d handoffs, %d deliveries; borders, crossings and beacons must each be exercised",
				cross, handoffs, delivered)
		}
	})
}

// TestMidFlightHandoff checks vehicles actually migrate between shards at
// boundaries and that the handoff bookkeeping conserves the fleet (the
// conservation invariant inside Run would fail otherwise).
func TestMidFlightHandoff(t *testing.T) {
	cfg := testConfig(5, 4)
	cfg.Ticks = 80
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs == 0 {
		t.Fatal("no handoffs in 80 ticks over 4 shards; border crossing path untested")
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Active != int64(cfg.Vehicles) {
		t.Fatalf("fleet shrank to %d of %d after %d handoffs", last.Active, cfg.Vehicles, res.Handoffs)
	}
	// Serial has no borders: handoffs only exist when sharded.
	cfg1 := cfg
	cfg1.Shards = 1
	res1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Handoffs != 0 {
		t.Fatalf("one-shard run reported %d handoffs", res1.Handoffs)
	}
}

// TestReproducible checks the same config gives identical output twice
// (no hidden wall-clock or map-order leakage) and that the seed matters.
func TestReproducible(t *testing.T) {
	cfg := testConfig(21, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Comparable() != b.Comparable() {
		t.Fatal("identical configs produced different output")
	}
	cfg.Seed = 22
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Comparable() == a.Comparable() {
		t.Fatal("seed change did not affect output")
	}
}

// TestChurnSchedule checks the schedule is well-formed: churned births
// stay in the first half, deaths in the second, intervals never empty.
func TestChurnSchedule(t *testing.T) {
	cfg := testConfig(9, 1)
	cfg.ChurnFrac = 0.5
	birth, death, err := ChurnSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	late, early := 0, 0
	for i := range birth {
		if birth[i] < 0 || int(birth[i]) >= cfg.Ticks/2 {
			t.Fatalf("id %d birth %d outside [0, %d)", i, birth[i], cfg.Ticks/2)
		}
		if birth[i] > 0 {
			late++
		}
		if death[i] != math.MaxInt32 {
			early++
			if int(death[i]) < cfg.Ticks/2 || int(death[i]) >= cfg.Ticks {
				t.Fatalf("id %d death %d outside [%d, %d)", i, death[i], cfg.Ticks/2, cfg.Ticks)
			}
		}
		if birth[i] >= death[i] {
			t.Fatalf("id %d has empty lifetime [%d, %d)", i, birth[i], death[i])
		}
	}
	if late == 0 || early == 0 {
		t.Fatalf("churn at 0.5 produced %d late arrivals, %d departures", late, early)
	}
}

// TestOutageSuppresses checks the outage actually removes beacons and is
// reflected in the comparable output.
func TestOutageSuppresses(t *testing.T) {
	cfg := testConfig(13, 2)
	cfg.Outage = &Outage{
		Rect:     geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 2400, Y: 2400}),
		FromTick: 0,
		ToTick:   cfg.Ticks,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radio.Sent != 0 {
		t.Fatalf("world-wide outage still sent %d beacons", res.Radio.Sent)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Suppressed == 0 {
		t.Fatal("no suppressions counted")
	}
	if !strings.Contains(res.Comparable(), "suppressed=") {
		t.Fatal("suppression missing from comparable output")
	}
}

// TestConfigValidation checks the error paths. A shard count far past
// what the world's cells can hold is refused before any kernel or worker
// is built for it.
func TestConfigValidation(t *testing.T) {
	bad := []struct {
		mutate func(*Config)
		want   string // in the error
	}{
		{func(c *Config) { c.Vehicles = 0 }, "vehicle"},
		{func(c *Config) { c.Ticks = 1 }, "ticks"},
		{func(c *Config) { c.WorldSize = 0 }, "world size"},
		{func(c *Config) { c.ChurnFrac = 1.5 }, "churn"},
		{func(c *Config) { c.TickEvery = time.Duration(2) }, "tick period"},
		{func(c *Config) { c.Shards = 1 << 40 }, "halo"},
	}
	for i, tc := range bad {
		cfg := testConfig(1, 1)
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("bad config %d: Run() = %v, want an error naming %q", i, err, tc.want)
		}
	}
}

// TestLocalsStaySorted checks the invariant every per-tick walk now leans
// on instead of sorting: after a run with churn and handoffs each shard's
// local table is strictly ascending by id, tables are disjoint, every
// vehicle sits on the shard that owns its position, and the union is
// exactly the churn schedule's live set at the last tick.
func TestLocalsStaySorted(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		cfg := testConfig(17, shards)
		cfg.Ticks = 80
		cfg.ChurnFrac = 0.3
		w, err := run(cfg)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		res, err := w.collect()
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if shards > 1 && res.Handoffs == 0 {
			t.Fatalf("%d shards: no handoffs; insert and compaction across shards untested", shards)
		}
		owner := make(map[int32]int)
		for _, s := range w.shards {
			for i, v := range s.locals {
				if i > 0 && s.locals[i-1].ID >= v.ID {
					t.Fatalf("%d shards: shard %d table not strictly ascending at %d: %d then %d",
						shards, s.idx, i, s.locals[i-1].ID, v.ID)
				}
				if prev, dup := owner[v.ID]; dup {
					t.Fatalf("%d shards: vehicle %d local to shards %d and %d", shards, v.ID, prev, s.idx)
				}
				owner[v.ID] = s.idx
				if got := w.smap.ShardOf(v.Pos); got != s.idx {
					t.Fatalf("%d shards: vehicle %d at %v is local to shard %d, position belongs to %d", shards, v.ID, v.Pos, s.idx, got)
				}
			}
		}
		last := int32(cfg.Ticks - 1)
		live, late, gone := 0, 0, 0
		for id := range w.birth {
			alive := w.birth[id] <= last && last < w.death[id]
			if alive {
				live++
			}
			if w.birth[id] > 0 {
				late++
			}
			if !alive {
				gone++
			}
			if _, ok := owner[int32(id)]; ok != alive {
				t.Fatalf("%d shards: vehicle %d (born %d, dies %d) local=%v at tick %d", shards, id, w.birth[id], w.death[id], ok, last)
			}
		}
		if len(owner) != live || late == 0 || gone == 0 {
			t.Fatalf("%d shards: %d locals for %d live vehicles (%d late arrivals, %d departed)", shards, len(owner), live, late, gone)
		}
	}
}

// refBeaconPhase is the per-sender beacon loop the pair sweep replaced,
// kept as the model: one range query per unmuted local sender over a
// mirror of the shard's index (locals and ghosts), the sender's own
// Beacon under the query's hit count, one verdict per candidate, and the
// receiver's owner found by ShardOf. It decides on ch, adds each delivery
// to perDst[receiver's owner] and returns the senders it muted.
func refBeaconPhase(t *testing.T, s *wshard, ch *radio.ShardChannel, perDst []int64) (suppressed uint64) {
	t.Helper()
	w := s.w
	cfg := &w.cfg
	tick := s.tick
	out := cfg.Outage
	mirror, err := geo.NewGridIndex(w.bounds, cfg.Radio.RangeMax)
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < int32(cfg.Vehicles); id++ {
		if p, ok := s.index.Position(id); ok {
			mirror.Update(id, p)
		}
	}
	var nids []int32
	var npos []geo.Point
	for i := range s.locals {
		v := &s.locals[i]
		id := v.ID
		if out != nil && tick >= out.FromTick && tick < out.ToTick && out.Rect.Contains(v.Pos) {
			suppressed++
			continue
		}
		ch.NoteSent(beaconBytes)
		nids, npos = mirror.WithinRangePos(nids[:0], npos[:0], v.Pos, cfg.Radio.RangeMax, id)
		busy := float64(len(nids)) * float64(cfg.Radio.Airtime(beaconBytes)) / float64(cfg.TickEvery)
		b := ch.Beacon(uint64(tick), radio.NodeID(id), busy)
		for j, nid := range nids {
			if b.Reaches(radio.NodeID(nid), cfg.Radio.ReceptionProb(v.Pos.Dist(npos[j]))) {
				perDst[w.smap.ShardOf(npos[j])]++
			}
		}
	}
	return suppressed
}

// TestBeaconPhaseMatchesPerSenderModel steps worlds at 1, 2 and 4 shards
// tick by tick, under churn and an outage that straddles the shard
// borders, and holds every beaconPhase to refBeaconPhase run on the same
// index state: per tick, equal channel Stats on every shard, equal
// suppression counts, and equal deliveries landing on every destination
// shard. Under -race it also carries the ghost, handoff and
// delivery-batch slabs across window barriers.
func TestBeaconPhaseMatchesPerSenderModel(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		cfg := testConfig(23, shards)
		cfg.Ticks = 36
		cfg.ChurnFrac = 0.25
		cfg.Outage = &Outage{
			Rect:     geo.NewRect(geo.Point{X: 900, Y: 700}, geo.Point{X: 1500, Y: 1700}),
			FromTick: 8,
			ToTick:   24,
		}
		w, err := newWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.sk.Close()
		seed := uint64(sim.SubSeed(cfg.Seed, "shardworld/radio"))
		refs := make([]*radio.ShardChannel, shards)
		for i := range refs {
			if refs[i], err = radio.NewShardChannel(seed, cfg.Radio); err != nil {
				t.Fatal(err)
			}
		}
		T, L := w.cfg.TickEvery, w.lookahead
		var refSuppressed uint64
		var crossed int64
		for tick := 0; tick < cfg.Ticks; tick++ {
			if err := w.sk.Run(sim.Time(tick)*T + 2*L - 1); err != nil {
				t.Fatal(err)
			}
			// sent[i][j] counts deliveries shard i decides for receivers
			// owned by shard j.
			sent := make([][]int64, shards)
			applied := make([]int64, shards)
			for i, s := range w.shards {
				sent[i] = make([]int64, shards)
				refSuppressed += refBeaconPhase(t, s, refs[i], sent[i])
				applied[i] = s.applied
			}
			if err := w.sk.Run(sim.Time(tick)*T + 3*L); err != nil {
				t.Fatal(err)
			}
			var suppressed uint64
			for j, s := range w.shards {
				if got, want := s.channel.Stats(), refs[j].Stats(); got != want {
					t.Fatalf("%d shards, tick %d, shard %d: channel %+v, per-sender model %+v", shards, tick, j, got, want)
				}
				suppressed += s.suppressed
				var want int64
				for i := range sent {
					want += sent[i][j]
					if i != j {
						crossed += sent[i][j]
					}
				}
				if got := s.applied - applied[j]; got != want {
					t.Fatalf("%d shards, tick %d: %d deliveries landed on shard %d, per-sender model sends %d", shards, tick, got, j, want)
				}
			}
			if suppressed != refSuppressed {
				t.Fatalf("%d shards, tick %d: %d beacons suppressed, per-sender model %d", shards, tick, suppressed, refSuppressed)
			}
		}
		if _, err := w.collect(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if refSuppressed == 0 || (shards > 1 && crossed == 0) {
			t.Fatalf("%d shards: %d beacons suppressed, %d deliveries across a border; the comparison proves less than it claims", shards, refSuppressed, crossed)
		}
	}
}

// TestCollectCatchesBrokenTransport steps a two-shard world to the first
// beacon phase that flushes deliveries both ways, local and across the
// border, breaks the transport one way per case before the batches apply
// at t+3L (or a counter after the run), and requires collect to refuse
// the run: the conservation checks must still see a lost, duplicated or
// misrouted batch now that one event carries a whole tick's deliveries
// to a shard.
func TestCollectCatchesBrokenTransport(t *testing.T) {
	cases := []struct {
		name string
		// mid gets the flushing shard, its batch to the other shard and
		// the delivery time, after the flush and before delivery; end
		// runs after the last tick.
		mid  func(s *wshard, cross *batchMsg, at sim.Time)
		end  func(w *world)
		want string // in collect's error; empty for the untouched run
	}{
		{name: "untouched"},
		{
			name: "batch dropped",
			mid:  func(_ *wshard, cross *batchMsg, _ sim.Time) { cross.n = 0 },
			want: "channel delivered",
		},
		{
			name: "batch duplicated",
			mid: func(s *wshard, _ *batchMsg, at sim.Time) {
				s.k.AtArg(at, applyDelivery, &s.batches[s.idx])
			},
			want: "channel delivered",
		},
		{
			// The fleet sums still agree; only the per-shard check sees it.
			name: "delivery misrouted",
			mid: func(s *wshard, cross *batchMsg, _ sim.Time) {
				cross.n--
				s.batches[s.idx].n++
			},
			want: "senders flushed",
		},
		{
			name: "sampled applied count perturbed",
			end:  func(w *world) { w.shards[1].samples[0].Applied++ },
			want: "channel delivered",
		},
		{
			name: "shard applied count perturbed",
			end:  func(w *world) { w.shards[1].applied-- },
			want: "senders flushed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(31, 2)
			cfg.Ticks = 24
			w, err := newWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.sk.Close()
			T, L := w.cfg.TickEvery, w.lookahead
			tampered := false
			for tick := 0; tick < cfg.Ticks && !tampered; tick++ {
				at := sim.Time(tick)*T + 3*L
				if err := w.sk.Run(at - L); err != nil {
					t.Fatal(err)
				}
				for _, s := range w.shards {
					cross := &s.batches[1-s.idx]
					if cross.n > 0 && s.batches[s.idx].n > 0 {
						if tc.mid != nil {
							tc.mid(s, cross, at)
						}
						tampered = true
						break
					}
				}
			}
			if !tampered {
				t.Fatal("no tick flushed deliveries both local and across the border")
			}
			if err := w.sk.Run(sim.Time(cfg.Ticks) * T); err != nil {
				t.Fatal(err)
			}
			if tc.end != nil {
				tc.end(w)
			}
			_, err = w.collect()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("untouched run refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("collect accepted the broken run")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("collect refused with %q, want the check naming %q", err, tc.want)
			}
		})
	}
}

// TestEventBudget holds the kernel's event count to what the phases and
// the shard count allow, whatever the number of deliveries: per shard and
// tick, four phase events (move, ghost clear, beacon, sample) and one
// delivery batch to its own receivers; every other message — ghost
// pushes, handoffs, batches to other shards — is a cross event, and each
// handoff adds one local demotion. One event per delivery would exceed
// the budget by the local deliveries, which at one shard are all of them.
func TestEventBudget(t *testing.T) {
	const phases = 4
	for _, shards := range []int{1, 2, 4} {
		cfg := testConfig(37, shards)
		cfg.ChurnFrac = 0.2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		budget := uint64(cfg.Ticks*shards*(phases+1)) + res.CrossEvents + uint64(res.Handoffs)
		if res.Processed > budget {
			t.Errorf("%d shards: %d kernel events for %d deliveries, budget %d", shards, res.Processed, res.Radio.Delivered, budget)
		}
		if res.Radio.Delivered <= budget {
			t.Fatalf("%d shards: %d deliveries within the budget of %d; one event per delivery would pass too", shards, res.Radio.Delivered, budget)
		}
	}
}

// TestWarmTickAllocFree runs a two-shard world past its warm-up and then
// requires a whole tick — moves, ghost pushes, handoffs, the pair sweep,
// verdicts, deliveries — to allocate less than once on average (what
// AllocsPerRun's integer mean reads as 0): messages ride in slabs, phases
// are scheduled with AtArg, and every table is sized at setup. What is
// left is amortized growth outside the tick's own code, a grid cell
// reaching a new peak occupancy now and then. Under -race it carries the
// same slabs across window barriers that the model test does.
func TestWarmTickAllocFree(t *testing.T) {
	cfg := testConfig(29, 2)
	cfg.Ticks = 300
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.sk.Close()
	tick := 0
	step := func() {
		tick++
		if err := w.sk.Run(sim.Time(tick) * w.cfg.TickEvery); err != nil {
			t.Fatal(err)
		}
	}
	for tick < 250 {
		step()
	}
	hops, cross := w.shards[0].hops+w.shards[1].hops, w.sk.CrossEvents()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a warm tick allocated %.1f times, want 0", allocs)
	}
	if w.shards[0].hops+w.shards[1].hops == hops || w.sk.CrossEvents() == cross {
		t.Fatal("no handoff or cross event in the measured ticks; the slabs went unexercised")
	}
}

// BenchmarkShardWorld runs the whole sharded stack — hash mobility, halo
// ghosts, handoffs, per-beacon verdicts, delivery batches — on a fleet
// dense enough that the neighbor query and the verdict dominate.
func BenchmarkShardWorld(b *testing.B) {
	cfg := DefaultConfig(1, 2)
	cfg.Vehicles = 1000
	cfg.Ticks = 20
	cfg.SampleEvery = 10
	cfg.ChurnFrac = 0.1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Radio.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}
