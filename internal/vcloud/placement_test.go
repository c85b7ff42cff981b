package vcloud

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// poolPick is the single-replica pick as it was before the running pick:
// every eligible member appended to a dwell-sufficient or a dwell-short
// slice, then a minimum taken over whichever pool is used. Kept as the
// reference model (only its walk moved from the member map to the
// roster); how reports which rule decided the pick.
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
	for _, m := range c.members {
		a := m.addr
		if exclude[a] || now-m.lastSeen > memberTTL {
			continue
		}
		if m.cpu <= 0 {
			continue
		}
		if !c.trustEligible(ts.policy, a) {
			continue
		}
		runtime := (m.queuedOps + remaining) / m.cpu
		cd := cand{addr: a, finish: runtime + m.delay.Seconds()}
		dwell := math.Inf(1)
		if c.dwell != nil && !m.edge {
			dwell = c.dwell(a)
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

// sequentialPicks is replica placement as it was before the one-pass
// scan: need successive poolPicks, each excluding every member that ever
// held a copy of ts and, when that finds nobody, only the members holding
// a live copy; or, for a handover from origin (origin >= 0), one pick
// excluding the live holders and origin.
func sequentialPicks(c *Controller, ts *taskState, need int, remaining float64, origin vnet.Addr) []vnet.Addr {
	everUsed := make(map[vnet.Addr]bool)
	live := make(map[vnet.Addr]bool)
	for _, r := range ts.replicas {
		everUsed[r.assignee] = true
		if !r.resolved() {
			live[r.assignee] = true
		}
	}
	if origin >= 0 {
		live[origin] = true
		if a, found, _ := poolPick(c, ts, live, remaining); found {
			return []vnet.Addr{a}
		}
		return nil
	}
	var out []vnet.Addr
	for len(out) < need {
		a, found, _ := poolPick(c, ts, everUsed, remaining)
		if !found {
			a, found, _ = poolPick(c, ts, live, remaining)
		}
		if !found {
			break
		}
		everUsed[a], live[a] = true, true
		out = append(out, a)
	}
	return out
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

// placeTrial is one random placement problem written into a rig's
// roster: a task with a replica history, and either a dispatch round of
// need copies or a handover of the live copy in slot by origin.
type placeTrial struct {
	ts        *taskState
	need      int
	remaining float64
	origin    vnet.Addr // the departing holder of a handover; -1 for a dispatch round
	slot      int
	// ref and got are trust sets fed the same evidence at instants before
	// the placement (nil when the trial runs without trust); the reference
	// model reads ref, the controller got. clock is their shared clock.
	ref, got *trust.WorkerSet
	clock    sim.Time
}

// drawTrial draws a roster of up to 30 members from small value sets, so
// that exact finish ties, dwell-short-only pools, stale, sensor-less,
// zero-CPU, trust-gated and edge members all turn up often.
func drawTrial(t testing.TB, rng *rand.Rand, c *Controller) *placeTrial {
	now := c.node.Kernel().Now()
	pickF := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	tr := &placeTrial{origin: -1, clock: now}
	if rng.Intn(4) > 0 {
		halflife := sim.Time(rng.Intn(2)) * 20 * time.Second
		var err error
		for _, ws := range []**trust.WorkerSet{&tr.ref, &tr.got} {
			if *ws, err = trust.NewWorkerSet(func() sim.Time { return tr.clock }, halflife); err != nil {
				t.Fatal(err)
			}
		}
	}
	evidence := tr.ref != nil && rng.Intn(3) > 0 // else every weight is equal and stage finishes tie
	allShort := rng.Intn(6) == 0                 // everyone lands in the dwell-short pool
	c.members = c.members[:0]
	dwell := make(map[vnet.Addr]float64)
	var addrs []vnet.Addr
	for i, n := 0, rng.Intn(30); i < n; i++ {
		a := vnet.Addr(rng.Intn(60))
		mi := memberInfo{
			cpu:       pickF(0, 500, 1000, 1000, 2000),
			lastSeen:  now - sim.Time(rng.Int63n(int64(4*memberTTL/3))),
			queuedOps: pickF(0, 0, 1000, 3000),
		}
		if rng.Intn(8) == 0 {
			a += scenario.RSUBase
			mi.edge, mi.delay = true, sim.Time(rng.Intn(2))*5*time.Millisecond
		}
		mi.addr = a
		m, _ := c.members.add(a)
		*m = mi
		addrs = append(addrs, a)
		dwell[a] = pickF(0, 1, 40, 200, 900, math.Inf(1))
		if allShort {
			dwell[a] = pickF(0, 1, 40, 50) // tiers 0 and 1, all under a minute
		}
		if evidence {
			tr.clock = now - sim.Time(rng.Int63n(int64(30*time.Second)))
			good, bad := float64(rng.Intn(4)), float64(rng.Intn(4))
			for _, ws := range []*trust.WorkerSet{tr.ref, tr.got} {
				ws.Good(a, good)
				ws.Bad(a, bad)
			}
		}
	}
	tr.clock = now
	c.cfg.Workers = nil
	c.dwell = nil
	if rng.Intn(5) > 0 {
		c.dwell = func(a vnet.Addr) float64 { return dwell[a] }
	}
	// roundPending keeps a placement that finds nobody from arming a
	// retry round: the trial ends at the placement.
	ts := &taskState{policy: &DependabilityPolicy{TrustThreshold: pickF(0, 0.4, 0.6)}, roundPending: true}
	ts.task.ID = TaskID(1 + rng.Int63n(1<<40))
	if rng.Intn(2) == 0 {
		ts.task.Stage = &StageBinding{}
	}
	tr.remaining = pickF(500, 1000, 1000, 4000)
	if allShort {
		tr.remaining = 120000 // a minute on the fastest member: nobody's dwell covers it
	}
	// A history of copies: live, timed out, or (outside handovers, whose
	// empty-handed path would otherwise settle a vote) voted. Holders are
	// mostly members, sometimes departed addresses.
	handover := rng.Intn(4) == 0
	holder := func() vnet.Addr {
		if len(addrs) > 0 && rng.Intn(4) > 0 {
			return addrs[rng.Intn(len(addrs))]
		}
		return vnet.Addr(rng.Intn(60))
	}
	for i, n := 0, rng.Intn(2*len(addrs)/3+2); i < n; i++ {
		r := &replicaSlot{assignee: holder(), attempt: i + 1}
		switch state := rng.Intn(3); {
		case state == 1:
			r.failed = true
		case state == 2 && !handover:
			r.voted = true
		}
		ts.replicas = append(ts.replicas, r)
	}
	ts.attempt = len(ts.replicas)
	if handover {
		tr.slot = len(ts.replicas)
		tr.origin = holder()
		ts.attempt++
		ts.replicas = append(ts.replicas, &replicaSlot{assignee: tr.origin, attempt: ts.attempt})
	} else {
		tr.need = 1 + rng.Intn(5)
	}
	tr.ts = ts
	return tr
}

// runTrial places tr with the reference model over tr.ref and then with
// the controller's own caller over tr.got — dispatchReplicas, or
// onHandover for a handover — and returns both choices in placement
// order. The trust sets must be bit-equal afterwards: each score is read
// at an instant after the placement, so a record read at the placement
// instant on one side only would show in Exp2 rounding.
func runTrial(t testing.TB, c *Controller, tr *placeTrial) (want, got []vnet.Addr) {
	t.Helper()
	ts := tr.ts
	c.cfg.Workers = tr.ref
	want = sequentialPicks(c, ts, tr.need, tr.remaining, tr.origin)
	c.cfg.Workers = tr.got
	before := len(ts.replicas)
	if tr.origin >= 0 {
		c.tasks[ts.task.ID] = ts
		c.onHandover(vnet.Message{Origin: tr.origin, Payload: handoverMsg{
			ID: ts.task.ID, RemainingOps: tr.remaining, Attempt: ts.replicas[tr.slot].attempt, Replica: tr.slot,
		}}, tr.origin)
		delete(c.tasks, ts.task.ID)
	} else {
		ts.remainingOps = tr.remaining
		c.dispatchReplicas(ts, tr.need)
	}
	for _, r := range ts.replicas[before:] {
		got = append(got, r.assignee)
		c.node.Kernel().Cancel(r.timeout) // the rig's kernel never runs again
	}
	if tr.ref != nil {
		tr.clock += 7 * time.Second
		for _, m := range c.members {
			if a, b := tr.ref.Score(m.addr), tr.got.Score(m.addr); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("member %d scores %v after the one-pass placement, %v after the successive picks", m.addr, b, a)
			}
		}
		tr.clock -= 7 * time.Second
	}
	return want, got
}

// TestPlaceReplicasMatchesSequentialPicks compares one-pass placement,
// through both of its callers, with K successive single picks of the
// pool model, K from 1 to 5, over random rosters and replica histories.
func TestPlaceReplicasMatchesSequentialPicks(t *testing.T) {
	c := placementRig(t)
	seen := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 500; trial++ {
			tr := drawTrial(t, rng, c)
			held := tr.ts.assignees(nil, false)
			want, got := runTrial(t, c, tr)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d trial %d (need %d, handover from %d, %d members, %d copies before): placed %v; the successive picks place %v",
					seed, trial, tr.need, tr.origin, len(c.members), len(held), got, want)
			}
			switch {
			case tr.origin >= 0 && len(got) > 0:
				seen["handover"]++
			case tr.origin >= 0:
				seen["handover, nobody"]++
			case len(got) == 0:
				seen["nobody"]++
			case len(got) < tr.need:
				seen["short of need"]++
			case tr.need > 1:
				seen["all of need > 1"]++
			}
			// A dispatched copy on a member that held one before came from
			// the live-assignee fallback.
			if tr.origin < 0 && len(got) > 0 {
				if _, reused := slices.BinarySearch(held, got[len(got)-1]); reused {
					seen["fallback"]++
				}
			}
		}
	}
	for _, what := range []string{"handover", "handover, nobody", "nobody", "short of need", "all of need > 1", "fallback"} {
		if seen[what] == 0 {
			t.Errorf("no trial ended as %q: %v", what, seen)
		}
	}
}

// FuzzPlaceReplicas runs the same comparison on trials drawn from
// fuzzed seeds.
func FuzzPlaceReplicas(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 20190707} {
		f.Add(seed)
	}
	c := placementRig(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		tr := drawTrial(t, rand.New(rand.NewSource(seed)), c)
		if want, got := runTrial(t, c, tr); !slices.Equal(got, want) {
			t.Fatalf("need %d, handover from %d, %d members: placed %v; the successive picks place %v",
				tr.need, tr.origin, len(c.members), got, want)
		}
	})
}

// TestPickReplicaMemberMatchesPoolModel compares a one-copy placement
// with the two-slice model over random member tables drawn from small
// value sets, so that exact finish ties, empty pools and ineligible
// members of every kind turn up often, and requires every rule of the
// order to decide some pick.
func TestPickReplicaMemberMatchesPoolModel(t *testing.T) {
	c := placementRig(t)
	now := c.node.Kernel().Now()
	decided := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pickF := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
		for trial := 0; trial < 500; trial++ {
			c.members = c.members[:0]
			dwell := make(map[vnet.Addr]float64)
			allShort := rng.Intn(6) == 0 // everyone lands in the fallback pool
			exclude := make(map[vnet.Addr]bool)
			var skip []vnet.Addr
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
				mi := memberInfo{
					cpu:       pickF(0, 500, 1000, 1000, 2000),
					lastSeen:  now - sim.Time(rng.Int63n(int64(4*memberTTL/3))),
					queuedOps: pickF(0, 0, 1000, 3000),
				}
				if rng.Intn(8) == 0 {
					a += scenario.RSUBase
					mi.edge, mi.delay = true, sim.Time(rng.Intn(2))*5*time.Millisecond
				}
				mi.addr = a
				m, _ := c.members.add(a)
				*m = mi
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
					skip = insertAddr(skip, a)
				}
			}
			c.dwell = nil
			if rng.Intn(5) > 0 {
				c.dwell = func(a vnet.Addr) float64 { return dwell[a] }
			}
			ts := &taskState{policy: &DependabilityPolicy{TrustThreshold: pickF(0, 0.4, 0.6)}}
			if rng.Intn(2) == 0 {
				ts.task.Stage = &StageBinding{}
			}
			remaining := pickF(500, 1000, 1000, 4000)
			if allShort {
				remaining = 120000 // a minute on the fastest member: nobody's dwell covers it
			}

			want, wantFound, how := poolPick(c, ts, exclude, remaining)
			picks := c.placeReplicas(ts, 1, remaining, skip, false)
			if found := len(picks) == 1; found != wantFound || found && picks[0].addr != want {
				t.Fatalf("seed %d trial %d (%s, %d members): picked %v; the pool model picks %d, %v",
					seed, trial, how, len(c.members), picks, want, wantFound)
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
// stage task to place and a skip list holding one of them.
func steadyTable(t testing.TB, c *Controller, n int) (*taskState, []vnet.Addr) {
	t.Helper()
	ws, err := trust.NewWorkerSet(c.node.Kernel().Now, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	dwell := make([]float64, n)
	c.members = c.members[:0]
	for i := range dwell {
		a := vnet.Addr(i)
		m, _ := c.members.add(a)
		m.cpu = 1000
		m.lastSeen = c.node.Kernel().Now()
		m.queuedOps = float64(rng.Intn(4)) * 1000
		dwell[i] = float64(rng.Intn(1000))
		ws.Good(a, float64(1+rng.Intn(5)))
		ws.Bad(a, float64(rng.Intn(3)))
	}
	c.cfg.Workers = ws
	c.dwell = func(a vnet.Addr) float64 { return dwell[a] }
	ts := &taskState{policy: &DependabilityPolicy{TrustThreshold: 0.3}}
	ts.task.Stage = &StageBinding{}
	return ts, []vnet.Addr{3}
}

// TestPickReplicaAllocs holds the placement of a K=3 task over a warm
// 120-member roster at zero allocations: no candidate pools (once two
// thirds of cloud_storm's allocated bytes), no exclusion maps, and the
// picks in the controller's scratch.
func TestPickReplicaAllocs(t *testing.T) {
	c := placementRig(t)
	ts, skip := steadyTable(t, c, 120)
	if picks := c.placeReplicas(ts, 3, 1000, skip, true); len(picks) != 3 {
		t.Fatalf("placed %d of 3 in the steady table", len(picks))
	}
	if allocs := testing.AllocsPerRun(200, func() { c.placeReplicas(ts, 3, 1000, skip, true) }); allocs != 0 {
		t.Errorf("placeReplicas allocates %v times per K=3 placement, want 0", allocs)
	}
}

// BenchmarkPickReplica places the three replicas of one task in one pass
// over rosters of 120 and 600 members — the work dispatchReplicas does
// per K=3 task.
func BenchmarkPickReplica(b *testing.B) {
	for _, n := range []int{120, 600} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			c := placementRig(b)
			ts, skip := steadyTable(b, c, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(c.placeReplicas(ts, 3, 1000, skip, true)) != 3 {
					b.Fatal("nobody eligible")
				}
			}
		})
	}
}
