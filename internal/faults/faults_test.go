package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"vcloud/internal/geo"
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
		"10s crash 1 2",       // too many args
		"10s crash -4",        // negative target
		"10s loss 1.5",        // probability out of range
		"10s partition 3 4",   // malformed point
		"10s partition 0,0 0", // zero radius
		"10s loss 0.2 -5s",    // negative duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted, want error", bad)
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
	heal := in.StartPartition(a.Position(), 1)
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
	in.Close()
	if got := pingCount(t, s, a, b, 5); got == 0 {
		t.Error("closed injector still blocks frames")
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

	healIso := in.StartIsolation(a.Addr(), nil)
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
	healPart := in.StartPartition(a.Position(), 1)
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
	in.SetLoss(1.0)
	if in.Cut(a.Addr(), b.Addr()) {
		t.Error("loss burst reported as cut")
	}
}

// TestCutDoesNotPerturbLossStream: two injectors with the same seed must
// drop the same frames even when one of them answers Cut probes between
// draws — Cut never consumes from the loss stream.
func TestCutDoesNotPerturbLossStream(t *testing.T) {
	drops := func(probe bool) []bool {
		s := testScenario(t, 12, 4)
		in, err := NewInjector(s)
		if err != nil {
			t.Fatalf("injector: %v", err)
		}
		ids := s.VehicleIDs()
		a, _ := s.Node(ids[0])
		b, _ := s.Node(ids[1])
		in.SetLoss(0.5)
		seq := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			if probe {
				in.Cut(a.Addr(), b.Addr())
				in.Cut(b.Addr(), a.Addr())
			}
			seq = append(seq, in.blocked(a.Addr(), b.Addr()))
		}
		return seq
	}
	if !reflect.DeepEqual(drops(false), drops(true)) {
		t.Error("Cut probes changed the loss stream's drop sequence")
	}
}

// TestCutAllocFree: with every kind of deterministic fault active, a Cut
// probe and a frame-filter call must not allocate — the storage views
// probe Cut per member per operation, the medium asks blocked per frame.
func TestCutAllocFree(t *testing.T) {
	s := testScenario(t, 13, 6)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	ids := s.VehicleIDs()
	a, _ := s.Node(ids[0])
	b, _ := s.Node(ids[1])
	c, _ := s.Node(ids[2])
	in.CrashNode(c.Addr())
	in.StartIsolation(c.Addr(), []vnet.Addr{vnet.Addr(ids[3])})
	in.StartIsolation(vnet.Addr(ids[4]), nil)
	in.StartPartition(c.Position(), 0.5)
	in.StartPartition(geo.Point{X: 1e6, Y: 1e6}, 1)
	in.SetLoss(0.5)
	// a–b crosses no boundary, so both walk every check to the end.
	if in.Cut(a.Addr(), b.Addr()) {
		t.Fatal("uninvolved pair reported cut")
	}
	if n := testing.AllocsPerRun(200, func() { in.Cut(a.Addr(), b.Addr()) }); n != 0 {
		t.Errorf("Cut allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { in.blocked(a.Addr(), b.Addr()) }); n != 0 {
		t.Errorf("blocked allocates %v times per call, want 0", n)
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
		part *partitionRegion
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
			var keep []vnet.Addr
			for i := rng.Intn(3); i > 0; i-- {
				k := addrs[rng.Intn(len(addrs))]
				keep = append(keep, k)
				set[k] = true
			}
			active = append(active, model{iso: set, heal: in.StartIsolation(center, keep)})
		case op == 1:
			r := partitionRegion{center: pos[addrs[rng.Intn(len(addrs))]], radius: 1 + 40*rng.Float64()}
			active = append(active, model{part: &r, heal: in.StartPartition(r.center, r.radius)})
		case op == 2 && len(healed) > 0:
			healed[rng.Intn(len(healed))]() // a second heal must be a no-op
		case len(active) > 0:
			i := rng.Intn(len(active)) // heals come in any order, not install order
			active[i].heal()
			healed = append(healed, active[i].heal)
			active = append(active[:i], active[i+1:]...)
		}
		if len(in.isolations)+len(in.partitions) != len(active) {
			t.Fatalf("step %d: %d isolations + %d partitions active, model has %d", step, len(in.isolations), len(in.partitions), len(active))
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
	for i := 1; i < len(in.isolations); i++ {
		if in.isolations[i-1].id >= in.isolations[i].id {
			t.Fatalf("isolations out of install order: %d before %d", in.isolations[i-1].id, in.isolations[i].id)
		}
	}
	for i := 1; i < len(in.partitions); i++ {
		if in.partitions[i-1].id >= in.partitions[i].id {
			t.Fatalf("partitions out of install order: %d before %d", in.partitions[i-1].id, in.partitions[i].id)
		}
	}
}
