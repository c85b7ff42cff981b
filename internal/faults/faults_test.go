package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/vnet"
)

func testScenario(t testing.TB, seed int64, vehicles int) *scenario.Scenario {
	t.Helper()
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 2, AisleLenM: 100, AisleGapM: 30})
	if err != nil {
		t.Fatalf("parking lot: %v", err)
	}
	s, err := scenario.New(scenario.Spec{Seed: seed, Network: net, NumVehicles: vehicles, Parked: true})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
		t.Fatalf("rsu: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return s
}

// pingCount sends n spaced unicasts from a to b and reports how many
// arrive within the run window.
func pingCount(t *testing.T, s *scenario.Scenario, a, b *vnet.Node, n int) int {
	t.Helper()
	got := 0
	b.Handle("faults.ping", func(msg vnet.Message, _ vnet.Addr) { got++ })
	defer b.Handle("faults.ping", nil)
	for i := 0; i < n; i++ {
		i := i
		s.Kernel.After(time.Duration(i)*100*time.Millisecond, func() {
			m := a.NewMessage(b.Addr(), "faults.ping", 64, 1, i)
			a.SendTo(b.Addr(), m)
		})
	}
	if err := s.RunFor(time.Duration(n)*100*time.Millisecond + 2*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

func TestParseRoundTrip(t *testing.T) {
	text := `
		30s crash 5
		50s recover 5          # back up
		30s rsu-down 0; 60s rsu-up 0
		40s partition 1500,-20 400 20s
		55s loss 0.3 10s
		56s loss 0.1
		70s kill-controller 0
	`
	plan, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(plan) != 8 {
		t.Fatalf("parsed %d events, want 8", len(plan))
	}
	want := Event{At: 40 * time.Second, Kind: Partition, Center: geo.Point{X: 1500, Y: -20}, Radius: 400, Dur: 20 * time.Second}
	if !reflect.DeepEqual(plan[4], want) {
		t.Errorf("partition event = %+v, want %+v", plan[4], want)
	}
	if plan[6].Dur != 0 {
		t.Errorf("open-ended loss got Dur %v", plan[6].Dur)
	}
	// The plan language round-trips: String() re-parses to the same plan.
	again, err := Parse(plan.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", plan.String(), err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", plan, again)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"banana crash 5",      // unparseable time
		"10s melt 3",          // unknown kind
		"10s crash",           // missing target
		"10s crash 1 2s 3s",   // too many args
		"10s recover 1 2s",    // a duration on a kind with no heal
		"10s crash -4",        // negative target
		"10s loss 1.5",        // probability out of range
		"10s partition 3 4",   // malformed point
		"10s partition 0,0 0", // zero radius
		"10s loss 0.2 -5s",    // negative duration
		// A written zero duration would mean "forever": omit it instead.
		"10s loss 0.9 0s",
		"5s crash 5 0s",
		"10s partition 0,0 50 0s",
		"10s isolate 3 0s",
		"10s uplink-down 0s",
		"10s uplink-down 3",     // no target: "3" reads as a bad duration
		"10s uplink-loss 1 2s",  // a certain uplink loss
		"10s lie 3 5s",          // a duration on a kind with no heal
		"10s honest",            // missing target
		"10s uplink-loss 0.2 0", // zero duration without a unit
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
		}
	}
}

// TestValidateDurations: crash, partition, loss, isolate, uplink-loss
// and uplink-down heal after their duration; every other kind takes
// none. The uplink kinds take no target, and an uplink loss is below 1.
func TestValidateDurations(t *testing.T) {
	for _, c := range []struct {
		e  Event
		ok bool
	}{
		{Event{Kind: Crash, Target: 5, Dur: 8 * time.Second}, true},
		{Event{Kind: Partition, Radius: 10, Dur: time.Second}, true},
		{Event{Kind: Loss, Prob: 0.3, Dur: time.Second}, true},
		{Event{Kind: Isolate, Target: 2, Dur: time.Second}, true},
		{Event{Kind: KillController, Target: 0, Dur: 5 * time.Second}, false},
		{Event{Kind: KillMember, Target: 3, Dur: time.Second}, false},
		{Event{Kind: Recover, Target: 5, Dur: time.Second}, false},
		{Event{Kind: RSUDown, Target: 0, Dur: time.Second}, false},
		{Event{Kind: RSUUp, Target: 0, Dur: time.Second}, false},
		{Event{Kind: Lie, Target: 3}, true},
		{Event{Kind: Honest, Target: 3, Dur: 5 * time.Second}, false},
		{Event{Kind: UplinkDown, Dur: time.Second}, true},
		{Event{Kind: UplinkDown, Target: 3, Dur: time.Second}, false},
		{Event{Kind: UplinkLoss, Prob: 0.5, Dur: time.Second}, true},
		{Event{Kind: UplinkLoss, Prob: 1, Dur: time.Second}, false},
		{Event{Kind: UplinkLoss, Prob: 1.5}, false},
	} {
		if err := c.e.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%s) = %v, want ok=%v", c.e, err, c.ok)
		}
	}
}

// TestCrashHealEndsOnlyItsOwn: a timed crash's heal revives its vehicle
// only when no other timed crash of it is active and no untimed down
// (crash, kill-member) holds it; a recover ends every down at once, and
// the heal of a crash it ended does nothing.
func TestCrashHealEndsOnlyItsOwn(t *testing.T) {
	type probe struct {
		at   time.Duration // virtual time, in half-seconds
		down bool
	}
	for _, c := range []struct {
		name, plan string
		want       []probe
	}{
		{"overlapping timed crashes", "1s crash 1 7s; 5s crash 1 5s",
			[]probe{{6, true}, {18, true}, {22, false}}},
		{"recover inside a timed crash", "0s crash 1 10s; 3s recover 1; 5s crash 1 2s; 9s crash 1 5s",
			[]probe{{1, true}, {8, false}, {12, true}, {16, false}, {19, true}, {22, true}, {29, false}}},
		{"untimed crash under a timed heal", "1s crash 1 5s; 3s crash 1; 9s recover 1",
			[]probe{{14, true}, {20, false}}},
		{"member kill under a timed heal", "1s crash 1 5s; 3s kill-member 1; 9s recover 1",
			[]probe{{14, true}, {20, false}}},
	} {
		s := bareScenario(t, 15, []geo.Point{{X: 10, Y: 10}, {X: 20, Y: 10}})
		in, err := NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		in.OnMemberKill(func(int) {})
		plan, err := Parse(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Schedule(plan); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.want {
			at := p.at * time.Second / 2
			if err := s.Kernel.Run(at); err != nil {
				t.Fatal(err)
			}
			if got := in.Crashed(1); got != p.down {
				t.Errorf("%s: at %s vehicle 1 down %v, want %v", c.name, at, got, p.down)
			}
		}
	}
}

func TestScheduleRequiresKillHook(t *testing.T) {
	s := testScenario(t, 1, 4)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	plan := Plan{{At: time.Second, Kind: KillController, Target: 0}}
	if err := in.Schedule(plan); err == nil {
		t.Fatal("Schedule accepted kill-controller without a hook")
	}
	fired := -1
	in.OnControllerKill(func(idx int) { fired = idx })
	if err := in.Schedule(plan); err != nil {
		t.Fatalf("Schedule with hook: %v", err)
	}
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("kill hook fired with %d, want 0", fired)
	}
	if in.Stats().Applied != 1 {
		t.Errorf("Applied = %d, want 1", in.Stats().Applied)
	}
}

// TestScheduleRefusesMissingHooks: a plan holding a kind whose hook or
// uplink is not installed is refused whole, before anything applies.
func TestScheduleRefusesMissingHooks(t *testing.T) {
	for _, text := range []string{
		"1s crash 1; 2s kill-member 1",
		"1s lie 3",
		"1s honest 3",
		"1s uplink-loss 0.5 2s",
		"1s uplink-down",
	} {
		s := bareScenario(t, 1, []geo.Point{{X: 10, Y: 10}, {X: 20, Y: 10}})
		in, err := NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Schedule(plan); err == nil {
			t.Errorf("Schedule(%q) accepted a kind with nothing to drive", text)
		}
		if err := s.Kernel.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		if log := in.Log(); len(log) != 0 {
			t.Errorf("Schedule(%q) refused, yet the injector applied %q", text, log)
		}
	}
}

// TestLieReachesHook: lie and honest events call the lie hook with their
// address, in plan order.
func TestLieReachesHook(t *testing.T) {
	s := bareScenario(t, 1, nil)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	type flip struct {
		addr int
		on   bool
	}
	var got []flip
	in.OnLie(func(addr int, on bool) { got = append(got, flip{addr, on}) })
	plan, err := Parse("1s lie 3; 2s honest 3; 2s lie 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	if err := s.Kernel.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if want := []flip{{3, true}, {3, false}, {7, true}}; !reflect.DeepEqual(got, want) {
		t.Errorf("lie hook saw %v, want %v", got, want)
	}
}

// TestUplinkHealEndsOnlyTheNewest: of two overlapping uplink-loss bursts
// or uplink-down windows, the older one's heal leaves the newer in
// force, and the newest one's heal restores the loss the uplink was
// attached with, or brings it back up.
func TestUplinkHealEndsOnlyTheNewest(t *testing.T) {
	type probe struct {
		at   time.Duration
		loss float64
		up   bool
	}
	for _, c := range []struct {
		name, plan string
		want       []probe
	}{
		{"overlapping loss bursts", "1s uplink-loss 0.5 4s; 3s uplink-loss 0.7 4s",
			[]probe{{2, 0.5, true}, {4, 0.7, true}, {6, 0.7, true}, {8, 0.02, true}}},
		{"overlapping outages", "1s uplink-down 4s; 3s uplink-down 4s",
			[]probe{{2, 0.02, false}, {6, 0.02, false}, {8, 0.02, true}}},
	} {
		s := bareScenario(t, 1, nil)
		in, err := NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		up, err := radio.NewUplink(s.Kernel, radio.UplinkParams{BaseRTT: time.Millisecond, BandwidthMbps: 1, LossProb: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		in.AttachUplink(up)
		plan, err := Parse(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Schedule(plan); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.want {
			if err := s.Kernel.Run(p.at * time.Second); err != nil {
				t.Fatal(err)
			}
			if loss, upNow := up.Params().LossProb, up.Available(); loss != p.loss || upNow != p.up {
				t.Errorf("%s: at %ds loss %v up %v, want %v %v", c.name, p.at, loss, upNow, p.loss, p.up)
			}
		}
	}
}

func TestCrashRecover(t *testing.T) {
	s := testScenario(t, 2, 4)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	ids := s.VehicleIDs()
	a, _ := s.Node(ids[0])
	b, _ := s.Node(ids[1])

	if got := pingCount(t, s, a, b, 5); got == 0 {
		t.Fatal("no delivery even before any fault")
	}
	in.CrashNode(b.Addr())
	if !in.Crashed(b.Addr()) {
		t.Error("Crashed() false after CrashNode")
	}
	if got := pingCount(t, s, a, b, 5); got != 0 {
		t.Errorf("crashed node received %d frames, want 0", got)
	}
	in.RecoverNode(b.Addr())
	if got := pingCount(t, s, a, b, 5); got == 0 {
		t.Error("no delivery after recover")
	}
	if in.Stats().DroppedFrames == 0 {
		t.Error("crash dropped no frames")
	}
}

func TestRSUDownViaPlan(t *testing.T) {
	s := testScenario(t, 3, 4)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	plan, err := Parse("1s rsu-down 0; 4s rsu-up 0")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	rsu := s.RSUs[0]
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !in.Crashed(rsu.Addr()) {
		t.Error("RSU not silenced after rsu-down fired")
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if in.Crashed(rsu.Addr()) {
		t.Error("RSU still silenced after rsu-up fired")
	}
	if got := in.Stats().Applied; got != 2 {
		t.Errorf("Applied = %d, want 2", got)
	}
	if lg := in.Log(); len(lg) != 2 || !strings.Contains(lg[0], "rsu-down") {
		t.Errorf("log = %q, want two entries starting with rsu-down", lg)
	}
}

func TestPartitionCutsBoundaryOnly(t *testing.T) {
	s := testScenario(t, 4, 6)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	ids := s.VehicleIDs()
	a, _ := s.Node(ids[0])
	b, _ := s.Node(ids[1])
	c, _ := s.Node(ids[2])

	// Isolate a tight region around a: only a is inside, so a↔b crosses
	// the boundary while b↔c is wholly outside.
	heal := in.Apply(Event{Kind: Partition, Center: a.Position(), Radius: 1})
	if got := pingCount(t, s, a, b, 5); got != 0 {
		t.Errorf("boundary-crossing traffic delivered %d, want 0", got)
	}
	if got := pingCount(t, s, b, c, 5); got == 0 {
		t.Error("wholly-outside traffic blocked by partition")
	}
	heal()
	if got := pingCount(t, s, a, b, 5); got == 0 {
		t.Error("no delivery after partition healed")
	}
}

func TestLossBurstHeals(t *testing.T) {
	s := testScenario(t, 5, 4)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	plan, err := Parse("0s loss 1.0 3s")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	ids := s.VehicleIDs()
	a, _ := s.Node(ids[0])
	b, _ := s.Node(ids[1])
	// Total loss: nothing arrives during the burst (pings sent over the
	// first 500ms, ARQ gives up well before the 3s heal).
	got := 0
	b.Handle("faults.ping", func(msg vnet.Message, _ vnet.Addr) { got++ })
	for i := 0; i < 5; i++ {
		i := i
		s.Kernel.After(time.Duration(i)*100*time.Millisecond, func() {
			m := a.NewMessage(b.Addr(), "faults.ping", 64, 1, i)
			a.SendTo(b.Addr(), m)
		})
	}
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("p=1.0 loss delivered %d frames, want 0", got)
	}
	b.Handle("faults.ping", nil)
	// After the burst ends delivery resumes.
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := pingCount(t, s, a, b, 5); got == 0 {
		t.Error("no delivery after loss burst ended")
	}
}

// TestCloseDisarms: Close clears the medium's fault table — crashes,
// isolations, partitions and loss alike — and keeps the drop count.
func TestCloseDisarms(t *testing.T) {
	s := testScenario(t, 6, 4)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	ids := s.VehicleIDs()
	a, _ := s.Node(ids[0])
	b, _ := s.Node(ids[1])
	in.CrashNode(b.Addr())
	in.Apply(Event{Kind: Isolate, Target: int(a.Addr())})
	in.Apply(Event{Kind: Partition, Center: a.Position(), Radius: 1})
	in.Apply(Event{Kind: Loss, Prob: 1})
	if got := pingCount(t, s, a, b, 2); got != 0 {
		t.Fatalf("armed injector delivered %d frames", got)
	}
	dropped := in.Stats().DroppedFrames
	in.Close()
	if in.Crashed(b.Addr()) || in.Cut(a.Addr(), b.Addr()) || in.Cut(b.Addr(), a.Addr()) {
		t.Error("closed injector still reports a crash or a cut")
	}
	if got := pingCount(t, s, a, b, 5); got == 0 {
		t.Error("closed injector still blocks frames")
	}
	if got := in.Stats().DroppedFrames; got != dropped {
		t.Errorf("DroppedFrames %d after Close, %d before; want it kept and no new drops", got, dropped)
	}
}

// TestCutTracksDeterministicFaults: Cut mirrors the deterministic frame
// filter — crashes on either end, isolations and partition boundaries —
// while loss bursts, being probabilistic, never register.
func TestCutTracksDeterministicFaults(t *testing.T) {
	s := testScenario(t, 11, 6)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	ids := s.VehicleIDs()
	a, _ := s.Node(ids[0])
	b, _ := s.Node(ids[1])
	c, _ := s.Node(ids[2])

	if in.Cut(a.Addr(), b.Addr()) {
		t.Error("healthy pair reported cut")
	}

	in.CrashNode(b.Addr())
	if !in.Cut(a.Addr(), b.Addr()) || !in.Cut(b.Addr(), a.Addr()) {
		t.Error("crash on either end must cut both directions")
	}
	if in.Cut(a.Addr(), c.Addr()) {
		t.Error("uninvolved pair cut by crash")
	}
	in.RecoverNode(b.Addr())
	if in.Cut(a.Addr(), b.Addr()) {
		t.Error("recovered pair still cut")
	}

	healIso := in.Apply(Event{Kind: Isolate, Target: int(a.Addr())})
	if !in.Cut(a.Addr(), b.Addr()) {
		t.Error("isolation boundary not cut")
	}
	if in.Cut(b.Addr(), c.Addr()) {
		t.Error("pair outside the isolation cut")
	}
	healIso()
	if in.Cut(a.Addr(), b.Addr()) {
		t.Error("healed isolation still cut")
	}

	// A tight partition around a cuts only boundary crossings.
	healPart := in.Apply(Event{Kind: Partition, Center: a.Position(), Radius: 1})
	if !in.Cut(a.Addr(), b.Addr()) {
		t.Error("partition boundary not cut")
	}
	if in.Cut(b.Addr(), c.Addr()) {
		t.Error("pair wholly outside the partition cut")
	}
	healPart()
	if in.Cut(a.Addr(), b.Addr()) {
		t.Error("healed partition still cut")
	}

	// Certain loss drops every frame, but Cut is about deterministic
	// faults only: reachability probes must not see — or perturb — it.
	in.Apply(Event{Kind: Loss, Prob: 1.0})
	if in.Cut(a.Addr(), b.Addr()) {
		t.Error("loss burst reported as cut")
	}
}

// TestCutDoesNotPerturbLossStream: two injectors with the same seed must
// drop the same frames even when one of them answers Cut probes between
// frames — Cut never consumes from the loss stream.
func TestCutDoesNotPerturbLossStream(t *testing.T) {
	drops := func(probe bool) []bool {
		s := bareScenario(t, 12, []geo.Point{{X: 10, Y: 10}, {X: 20, Y: 10}})
		in, err := NewInjector(s)
		if err != nil {
			t.Fatalf("injector: %v", err)
		}
		in.Apply(Event{Kind: Loss, Prob: 0.5})
		seq := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			if probe {
				in.Cut(0, 1)
				in.Cut(1, 0)
			}
			seq = append(seq, frameDropped(s, in, 0, 1))
		}
		return seq
	}
	if !reflect.DeepEqual(drops(false), drops(true)) {
		t.Error("Cut probes changed the loss stream's drop sequence")
	}
}

// TestCutAllocFree: with every kind of fault active, a Cut probe and a
// frame's fault verdicts must not allocate — the storage views probe Cut
// per member per operation, the medium judges every reception.
func TestCutAllocFree(t *testing.T) {
	s := bareScenario(t, 13, []geo.Point{{X: 10, Y: 10}, {X: 20, Y: 10}, {X: 30, Y: 10}, {X: 40, Y: 10}, {X: 50, Y: 10}})
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	in.CrashNode(2)
	in.Apply(Event{Kind: Isolate, Target: 2, Keep: []int{3}})
	in.Apply(Event{Kind: Isolate, Target: 4})
	in.Apply(Event{Kind: Partition, Center: geo.Point{X: 30, Y: 10}, Radius: 0.5})
	in.Apply(Event{Kind: Partition, Center: geo.Point{X: 1e6, Y: 1e6}, Radius: 1})
	in.Apply(Event{Kind: Loss, Prob: 0.5})
	// 0–1 crosses no boundary, so both walk every check to the end.
	if in.Cut(0, 1) {
		t.Fatal("uninvolved pair reported cut")
	}
	if n := testing.AllocsPerRun(200, func() { in.Cut(0, 1) }); n != 0 {
		t.Errorf("Cut allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Medium.Send(0, 1, 100, nil) }); n != 0 {
		t.Errorf("a frame's fault verdicts allocate %v times per frame, want 0", n)
	}
}

// TestInstallHealInterleaving drives random installs and heals of
// partitions and isolations (heals in any order, some twice) and checks
// every pair's Cut verdict against a plain set of the unhealed faults:
// a boundary is cut while any of them crosses it, whatever the order.
func TestInstallHealInterleaving(t *testing.T) {
	s := testScenario(t, 14, 8)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	var addrs []vnet.Addr
	pos := map[vnet.Addr]geo.Point{}
	for _, id := range s.VehicleIDs() {
		n, _ := s.Node(id)
		addrs = append(addrs, n.Addr())
		pos[n.Addr()] = n.Position()
	}
	type model struct {
		iso  map[vnet.Addr]bool
		part *disc
		heal func()
	}
	var active []model // the reference: just the set of unhealed faults
	var healed []func()
	rng := s.Kernel.NewStream("interleave")
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(5); {
		case op == 0:
			center := addrs[rng.Intn(len(addrs))]
			set := map[vnet.Addr]bool{center: true}
			var keep []int
			for i := rng.Intn(3); i > 0; i-- {
				k := addrs[rng.Intn(len(addrs))]
				keep = append(keep, int(k))
				set[k] = true
			}
			active = append(active, model{iso: set, heal: in.Apply(Event{Kind: Isolate, Target: int(center), Keep: keep})})
		case op == 1:
			r := disc{center: pos[addrs[rng.Intn(len(addrs))]], radius: 1 + 40*rng.Float64()}
			active = append(active, model{part: &r, heal: in.Apply(Event{Kind: Partition, Center: r.center, Radius: r.radius})})
		case op == 2 && len(healed) > 0:
			healed[rng.Intn(len(healed))]() // a second heal must be a no-op
		case len(active) > 0:
			i := rng.Intn(len(active)) // heals come in any order, not install order
			active[i].heal()
			healed = append(healed, active[i].heal)
			active = append(active[:i], active[i+1:]...)
		}
		for _, from := range addrs {
			for _, to := range addrs {
				want := false
				for _, m := range active {
					if m.iso != nil && m.iso[from] != m.iso[to] {
						want = true
					}
					if m.part != nil && (pos[from].Dist(m.part.center) <= m.part.radius) != (pos[to].Dist(m.part.center) <= m.part.radius) {
						want = true
					}
				}
				if got := in.Cut(from, to); got != want {
					t.Fatalf("step %d: Cut(%d,%d) = %v, model says %v", step, from, to, got, want)
				}
			}
		}
	}
}
