package vcloud

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/trust"
	"vcloud/internal/vnet"
)

// poolPick is pickReplicaMember as it was before the running pick: every
// eligible member appended to a dwell-sufficient or a dwell-short slice,
// then a minimum taken over whichever pool is used. Kept verbatim as the
// reference model; how reports which rule decided the pick.
func poolPick(c *Controller, ts *taskState, exclude map[vnet.Addr]bool, remaining float64) (addr vnet.Addr, found bool, how string) {
	now := c.node.Kernel().Now()
	stage := ts.task.Stage != nil
	type cand struct {
		addr     vnet.Addr
		finish   float64
		tier     int
		hasDwell bool
	}
	var ok, short []cand
	for a, m := range c.members {
		if exclude[a] || now-m.lastSeen > memberTTL {
			continue
		}
		if m.res.CPU <= 0 || !m.res.HasSensor(ts.task.NeedsSensor) {
			continue
		}
		if !c.trustEligible(ts.policy, a) {
			continue
		}
		runtime := (m.queuedOps + remaining) / m.res.CPU
		cd := cand{addr: a, finish: runtime + m.delay.Seconds()}
		dwell := math.Inf(1)
		if c.cfg.Dwell != nil && !m.edge {
			dwell = c.cfg.Dwell(a)
			cd.hasDwell = dwell >= runtime*dwellMargin
		} else {
			cd.hasDwell = true
		}
		if stage {
			cd.tier = mobility.DwellTier(dwell)
			if c.cfg.Workers != nil {
				cd.finish /= c.cfg.Workers.Weight(a)
			}
		}
		if cd.hasDwell {
			ok = append(ok, cd)
		} else {
			short = append(short, cd)
		}
	}
	pool, how := ok, "dwell"
	if len(pool) == 0 {
		pool, how = short, "short"
	}
	if len(pool) == 0 {
		return 0, false, "nobody"
	}
	best := pool[0]
	for _, cd := range pool[1:] {
		switch {
		case cd.finish < best.finish:
			best = cd
		case cd.finish == best.finish && cd.tier > best.tier:
			best = cd
		case cd.finish == best.finish && cd.tier == best.tier && cd.addr < best.addr:
			best = cd
		}
	}
	// Which rule separated the winner from its closest rival?
	for _, cd := range pool {
		if cd.addr != best.addr && cd.finish == best.finish {
			if cd.tier == best.tier {
				return best.addr, true, how + "+addr"
			}
			how += "+tier"
			break
		}
	}
	return best.addr, true, how
}

// placementRig is a controller on a lone node, ten virtual seconds in,
// whose member table the tests write directly.
func placementRig(t testing.TB) *Controller {
	t.Helper()
	k := sim.NewKernel(1)
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 100, Y: 100}), radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	node, err := vnet.NewNode(k, m, 0, vnet.Config{}, func() (geo.Point, float64, float64) { return geo.Point{}, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(node, ControllerConfig{}, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPickReplicaMemberMatchesPoolModel compares the running pick with
// the two-slice model over random member tables drawn from small value
// sets, so that exact finish ties, empty pools and ineligible members of
// every kind turn up often.
func TestPickReplicaMemberMatchesPoolModel(t *testing.T) {
	c := placementRig(t)
	now := c.node.Kernel().Now()
	decided := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pickF := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
		for trial := 0; trial < 500; trial++ {
			clear(c.members)
			dwell := make(map[vnet.Addr]float64)
			allShort := rng.Intn(6) == 0 // everyone lands in the fallback pool
			exclude := make(map[vnet.Addr]bool)
			var err error
			c.cfg.Workers = nil
			if rng.Intn(4) > 0 {
				if c.cfg.Workers, err = trust.NewWorkerSet(c.node.Kernel().Now, 0); err != nil {
					t.Fatal(err)
				}
			}
			evidence := rng.Intn(3) > 0 // else every weight is equal and stage finishes tie
			for i, n := 0, rng.Intn(30); i < n; i++ {
				a := vnet.Addr(rng.Intn(60))
				mi := &memberInfo{
					res:       Resources{CPU: pickF(0, 500, 1000, 1000, 2000)},
					lastSeen:  now - sim.Time(rng.Int63n(int64(4*memberTTL/3))),
					queuedOps: pickF(0, 0, 1000, 3000),
				}
				if rng.Intn(3) > 0 {
					mi.res.Sensors = []string{"camera", "lidar"}[:1+rng.Intn(2)]
				}
				if rng.Intn(8) == 0 {
					a += scenario.RSUBase
					mi.edge, mi.delay = true, sim.Time(rng.Intn(2))*5*time.Millisecond
				}
				c.members[a] = mi
				dwell[a] = pickF(0, 1, 40, 200, 900, math.Inf(1))
				if allShort {
					dwell[a] = pickF(0, 1, 40, 50) // tiers 0 and 1, all under a minute
				}
				if c.cfg.Workers != nil && evidence {
					c.cfg.Workers.Good(a, float64(rng.Intn(4)))
					c.cfg.Workers.Bad(a, float64(rng.Intn(4)))
				}
				if rng.Intn(5) == 0 {
					exclude[a] = true
				}
			}
			c.cfg.Dwell = nil
			if rng.Intn(5) > 0 {
				c.cfg.Dwell = func(a vnet.Addr) float64 { return dwell[a] }
			}
			ts := &taskState{policy: &DependabilityPolicy{TrustThreshold: pickF(0, 0.4, 0.6)}}
			if rng.Intn(2) == 0 {
				ts.task.Stage = &StageBinding{}
			}
			if rng.Intn(3) == 0 {
				ts.task.NeedsSensor = "lidar"
			}
			remaining := pickF(500, 1000, 1000, 4000)
			if allShort {
				remaining = 120000 // a minute on the fastest member: nobody's dwell covers it
			}

			want, wantFound, how := poolPick(c, ts, exclude, remaining)
			got, found := c.pickReplicaMember(ts, exclude, remaining)
			if got != want || found != wantFound {
				t.Fatalf("seed %d trial %d (%s, %d members): picked %d, %v; the pool model picks %d, %v",
					seed, trial, how, len(c.members), got, found, want, wantFound)
			}
			decided[how]++
		}
	}
	for _, how := range []string{"dwell", "dwell+tier", "dwell+addr", "short", "short+tier", "short+addr", "nobody"} {
		if decided[how] == 0 {
			t.Errorf("no trial was decided by %q: %v", how, decided)
		}
	}
}

// steadyTable fills the controller with n fresh members of mixed load and
// dwell, scored by a trust set with evidence on everyone, and returns a
// stage task to place and an exclude set holding one of them.
func steadyTable(t testing.TB, c *Controller, n int) (*taskState, map[vnet.Addr]bool) {
	t.Helper()
	ws, err := trust.NewWorkerSet(c.node.Kernel().Now, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dwell := make([]float64, n)
	for i := range dwell {
		a := vnet.Addr(i)
		c.members[a] = &memberInfo{
			res:       Resources{CPU: 1000},
			lastSeen:  c.node.Kernel().Now(),
			queuedOps: float64(rng.Intn(4)) * 1000,
		}
		dwell[i] = float64(rng.Intn(1000))
		ws.Good(a, float64(1+rng.Intn(5)))
		ws.Bad(a, float64(rng.Intn(3)))
	}
	c.cfg.Workers = ws
	c.cfg.Dwell = func(a vnet.Addr) float64 { return dwell[a] }
	ts := &taskState{policy: &DependabilityPolicy{TrustThreshold: 0.3}}
	ts.task.Stage = &StageBinding{}
	return ts, map[vnet.Addr]bool{3: true}
}

// TestPickReplicaAllocs holds a placement over a warm member table at
// zero allocations (the pools it used to build were two thirds of
// cloud_storm's allocated bytes).
func TestPickReplicaAllocs(t *testing.T) {
	c := placementRig(t)
	ts, exclude := steadyTable(t, c, 120)
	if _, found := c.pickReplicaMember(ts, exclude, 1000); !found {
		t.Fatal("nobody eligible in the steady table")
	}
	if allocs := testing.AllocsPerRun(200, func() { c.pickReplicaMember(ts, exclude, 1000) }); allocs != 0 {
		t.Errorf("pickReplicaMember allocates %v times per placement, want 0", allocs)
	}
}

// BenchmarkPickReplica places the three replicas of one task over 120
// members, each pick excluding the members already chosen — the work
// dispatchReplicas does per K=3 task.
func BenchmarkPickReplica(b *testing.B) {
	c := placementRig(b)
	ts, exclude := steadyTable(b, c, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(exclude)
		for k := 0; k < 3; k++ {
			a, found := c.pickReplicaMember(ts, exclude, 1000)
			if !found {
				b.Fatal("nobody eligible")
			}
			exclude[a] = true
		}
	}
}
