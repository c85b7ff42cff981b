package shardworld

import (
	"math"
	"strings"
	"testing"
	"time"

	"vcloud/internal/geo"
)

func testConfig(seed int64, shards int) Config {
	cfg := DefaultConfig(seed, shards)
	cfg.Vehicles = 120
	cfg.Ticks = 48
	cfg.SampleEvery = 12
	cfg.WorldSize = 2400
	return cfg
}

// TestShardedMatchesSerial is the tentpole contract: the world's model
// output is byte-for-byte identical at 1, 2, 4 and 8 shards, including
// under churn and a beacon outage.
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

// TestConfigValidation checks the error paths.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Vehicles = 0 },
		func(c *Config) { c.Ticks = 1 },
		func(c *Config) { c.WorldSize = 0 },
		func(c *Config) { c.ChurnFrac = 1.5 },
		func(c *Config) { c.TickEvery = time.Duration(2) },
	}
	for i, mutate := range bad {
		cfg := testConfig(1, 1)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
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

// BenchmarkShardWorld runs the whole sharded stack — hash mobility, halo
// ghosts, handoffs, per-beacon verdicts, delivery events — on a fleet
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
