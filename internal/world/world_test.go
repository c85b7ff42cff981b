package world

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"

	"vcloud/internal/auth"
	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/pki"
	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

func build(t *testing.T, spec Spec) *World {
	t.Helper()
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestHighwayPreset(t *testing.T) {
	w := build(t, Spec{Seed: 1, Road: Highway(3000, 27), Vehicles: 40})
	s := w.Scenario
	if got := len(s.VehicleIDs()); got != 40 {
		t.Errorf("vehicles = %d, want 40", got)
	}
	if b := s.Network.Bounds(); b.Width() != 3100 { // 50 m margin each side
		t.Errorf("corridor bounds span %g m, want 3100", b.Width())
	}
	if w.Cloud != nil || len(s.RSUs) != 0 {
		t.Errorf("a bare highway has a cloud (%v) or RSUs (%d)", w.Cloud, len(s.RSUs))
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCityPreset(t *testing.T) {
	w := build(t, Spec{Seed: 2, Road: City(), Vehicles: 10})
	if got := len(w.Scenario.VehicleIDs()); got != 10 {
		t.Errorf("vehicles = %d, want 10", got)
	}
	if b := w.Scenario.Network.Bounds(); b.Width() != 900 || b.Height() != 900 { // 50 m margins
		t.Errorf("grid bounds span %gx%g m, want 900x900", b.Width(), b.Height())
	}
}

func TestParkingLotPreset(t *testing.T) {
	w := build(t, Spec{Seed: 3, Road: ParkingLot(200), Vehicles: 12, RSUs: []geo.Point{Gate}})
	s := w.Scenario
	if len(s.RSUs) != 1 {
		t.Fatalf("RSUs = %d, want the gate", len(s.RSUs))
	}
	if p, _ := s.Medium.Position(s.RSUs[0].Addr()); p != Gate {
		t.Errorf("gate RSU at %v, want %v", p, Gate)
	}
	before := map[vnet.Addr]geo.Point{}
	for _, id := range s.VehicleIDs() {
		before[vnet.Addr(id)], _ = s.Mobility.Pos(id)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range s.VehicleIDs() {
		if p, _ := s.Mobility.Pos(id); p != before[vnet.Addr(id)] {
			t.Errorf("parked vehicle %d moved from %v to %v", id, before[vnet.Addr(id)], p)
		}
	}
}

func TestAcrossSpreadsSites(t *testing.T) {
	sites, err := Highway(3000, 27).Across(3)
	if err != nil {
		t.Fatal(err)
	}
	// Quarter points of the bounds, which run from x=-50 to 3050.
	for i, want := range []float64{725, 1500, 2275} {
		if sites[i].X != want || sites[i].Y != 15 {
			t.Errorf("site %d = %v, want (%g, 15)", i, sites[i], want)
		}
	}
	if _, err := (Road{}).Across(3); err == nil {
		t.Error("Across on the zero Road accepted")
	}
}

func TestBuildDeploysAndRunsTasks(t *testing.T) {
	w := build(t, Spec{Seed: 1, Road: ParkingLot(200), Vehicles: 10, RSUs: []geo.Point{Gate}, Cloud: Default(vcloud.Stationary)})
	s := w.Scenario
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 5; i++ {
		if err := w.Cloud.SubmitAnywhere(vcloud.Task{Ops: 500, InputBytes: 100, OutputBytes: 100},
			func(r vcloud.TaskResult) {
				if r.OK {
					done++
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if done != 5 || w.Stats.Completed.Value() != 5 {
		t.Errorf("completed %d/5 tasks (stats %d)", done, w.Stats.Completed.Value())
	}
	if err := w.Deploy(*Default(vcloud.Dynamic)); err == nil {
		t.Error("second Deploy accepted")
	}
}

func TestByzantineAreLowestIDs(t *testing.T) {
	w := build(t, Spec{Seed: 4, Road: ParkingLot(150), Vehicles: 10, RSUs: []geo.Point{Gate},
		Cloud: &Cloud{Arch: vcloud.Stationary}, Byzantine: 0.3})
	if len(w.Byzantine) != 3 {
		t.Fatalf("%d Byzantine members, want 3", len(w.Byzantine))
	}
	for _, id := range w.memberIDs()[:3] {
		if b := w.Byzantine[vnet.Addr(id)]; b == nil || !b.Active() {
			t.Errorf("member %d is not a lying worker", id)
		}
	}
}

func TestFaultPlanKillHooks(t *testing.T) {
	w := build(t, Spec{Seed: 5, Road: ParkingLot(150), Vehicles: 8, RSUs: []geo.Point{Gate},
		Cloud:  &Cloud{Arch: vcloud.Stationary},
		Faults: faults.Plan{{At: 2 * time.Second, Kind: faults.KillMember, Target: 3}, {At: 3 * time.Second, Kind: faults.KillController}},
	})
	s := w.Scenario
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Cloud.Members[3]; ok {
		t.Error("killed member 3 still in the deployment")
	}
	if !w.Injector.Cut(s.RSUs[0].Addr(), 3) {
		t.Error("killed member 3 still on the air")
	}
	if n := len(w.Cloud.ActiveControllers()); n != 0 {
		t.Errorf("%d controllers live after the kill, want 0 (no failover)", n)
	}
}

// TestFaultLogReplays: a world's fault log, read back with faults.Parse,
// is the plan the world was built with — every kind, in plan order, the
// heals of its timed faults only as comments.
func TestFaultLogReplays(t *testing.T) {
	plan, err := faults.Parse("1s crash 3; 2s recover 3; 2s rsu-down 0; 3s rsu-up 0; 3s partition 0,0 40 2s; " +
		"4s isolate 4,5 1s; 4s loss 0.3 2s; 5s crash 6 1500ms; 7s kill-controller 0; 8s kill-member 2")
	if err != nil {
		t.Fatal(err)
	}
	w := build(t, Spec{Seed: 5, Road: ParkingLot(150), Vehicles: 8, RSUs: []geo.Point{Gate},
		Cloud: &Cloud{Arch: vcloud.Stationary}, Faults: plan})
	if err := w.Scenario.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Scenario.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	log := w.Injector.Log()
	again, err := faults.Parse(strings.Join(log, "\n"))
	if err != nil {
		t.Fatalf("log does not parse: %v\n%s", err, strings.Join(log, "\n"))
	}
	if !reflect.DeepEqual(again, plan) {
		t.Errorf("log reads back as\n%s\nwant the plan\n%s", again, plan)
	}
	if heals := len(log) - len(plan); heals != 4 {
		t.Errorf("%d heal lines, want one per timed fault (4):\n%s", heals, strings.Join(log, "\n"))
	}
}

func TestKillMemberRejoins(t *testing.T) {
	w := build(t, Spec{Seed: 6, Road: ParkingLot(150), Vehicles: 8, RSUs: []geo.Point{Gate}, Cloud: &Cloud{Arch: vcloud.Stationary}})
	s := w.Scenario
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	id, ok := w.KillMember(rng, time.Second)
	if !ok {
		t.Fatal("kill refused on a full fleet")
	}
	old := w.Cloud.Members[id]
	if old != nil {
		t.Fatalf("member %d survived its kill", id)
	}
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.Cloud.Members[id] == nil || w.Injector.Cut(s.RSUs[0].Addr(), vnet.Addr(id)) {
		t.Errorf("member %d did not rejoin", id)
	}
	// The half-fleet floor: 8 vehicles keep at least 4 members.
	kills := 0
	for {
		if _, ok := w.KillMember(rng, 0); !ok {
			break
		}
		kills++
	}
	if len(w.Cloud.Members) != 4 || kills != 4 {
		t.Errorf("after %d kills %d members remain, want 4 kills down to 4", kills, len(w.Cloud.Members))
	}
}

func TestDeparturesReviveLongestGone(t *testing.T) {
	w := build(t, Spec{Seed: 7, Road: ParkingLot(200), Vehicles: 9, RSUs: []geo.Point{Gate}})
	s := w.Scenario
	d := w.Departures(s.RSUs[0].Addr())
	b, err := store.NewReplicated(store.Config{N: 1, W: 1, R: 1}, d.View(), &store.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var order []vnet.Addr
	for step := 0; step < 4; step++ {
		s.Kernel.At(sim.Time(step)*time.Second, func() {
			revived, departed := d.Step(rng, b)
			if revived >= 0 {
				t.Errorf("step %d revived %d with only %d gone", step, revived, len(order))
			}
			order = append(order, departed)
		})
	}
	if err := s.Kernel.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(d.View().Members()); got != 5 {
		t.Errorf("%d members in view, want 9-4", got)
	}
	revived, _ := d.Step(rng, b)
	if revived != order[0] {
		t.Errorf("revived %d, want the longest gone %d", revived, order[0])
	}
	if d.Gone(order[0]) || w.Injector.Cut(s.RSUs[0].Addr(), order[0]) {
		t.Errorf("revived vehicle %d still gone or off the air", order[0])
	}
}

// specFields are the Spec fields a Validate error may name, each with a
// value that cannot be at fault.
var specFields = map[string]func(*Spec){
	"Road":         func(s *Spec) { s.Road = ParkingLot(100) },
	"Vehicles":     func(s *Spec) { s.Vehicles = 3 },
	"BeaconPeriod": func(s *Spec) { s.BeaconPeriod = 0 },
	"RSUs":         func(s *Spec) { s.RSUs = []geo.Point{Gate} },
	"Cloud":        func(s *Spec) { s.Cloud = nil },
	"Byzantine":    func(s *Spec) { s.Byzantine = 0 },
	"Faults":       func(s *Spec) { s.Faults = nil },
}

// FuzzSpec decodes bytes into small specs: every spec Validate accepts
// builds and runs a warm-up second; every error names a field whose
// repair changes the verdict.
func FuzzSpec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 0, 3, 1, 0, 1, 2, 1, 0, 2, 1, 3, 4, 2})
	f.Add([]byte{9, 1, 4, 2, 6, 2, 1, 2, 3, 2, 1, 2, 2, 1, 2, 3, 7, 4})
	f.Add([]byte{3, 3, 0, 0, 8, 1, 0, 2, 2, 2, 2, 3, 2, 2, 1, 5, 1, 2})
	f.Add([]byte{1, 2, 0, 4, 0, 1, 0, 0, 1, 0, 0, 1, 0, 6, 4, 0, 0, 0}) // valid: a kill-member plan
	f.Add([]byte{5, 3, 6, 0, 1, 0, 0, 3, 3, 1, 0})                      // valid: a secure dynamic cloud
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := decodeSpec(data)
		for fixed := map[string]bool{}; ; {
			err := spec.Validate()
			if err == nil {
				break
			}
			field := strings.TrimPrefix(err.Error(), "world: ")
			if i := strings.IndexFunc(field, func(r rune) bool { return !unicode.IsLetter(r) }); i >= 0 {
				field = field[:i]
			}
			repair, ok := specFields[field]
			if !ok || fixed[field] {
				t.Fatalf("error %q names no field, or one already repaired", err)
			}
			fixed[field] = true
			repair(&spec)
			if len(fixed) == 1 {
				if _, err := Build(decodeSpec(data)); err == nil {
					t.Fatal("Build accepted a spec Validate rejects")
				}
			}
		}
		w, err := Build(spec)
		if err != nil {
			t.Fatalf("valid spec %+v: Build: %v", spec, err)
		}
		if err := w.Scenario.Start(); err != nil {
			t.Fatal(err)
		}
		if err := w.Scenario.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeSpec maps fuzz bytes onto a spec of at most eight vehicles and
// short fault times, bad values included.
func decodeSpec(data []byte) Spec {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	nan, inf := math.NaN(), math.Inf(1)
	lengths := []float64{1500, 200, 0, -5, nan, 2500}
	spec := Spec{Seed: int64(next(256))}
	switch next(4) {
	case 1:
		spec.Road = Highway(lengths[next(len(lengths))], []float64{27, 0, inf, 13}[next(4)])
	case 2:
		spec.Road = ParkingLot(lengths[next(len(lengths))])
	case 3:
		spec.Road = City()
	}
	spec.Vehicles = next(10) - 1
	spec.BeaconPeriod = []sim.Time{0, 200 * time.Millisecond, -time.Millisecond}[next(3)]
	for n := next(3); n > 0; n-- {
		spec.RSUs = append(spec.RSUs, geo.Point{X: []float64{0, 60, 500, nan}[next(4)], Y: []float64{0, 15, inf}[next(3)]})
	}
	if arch := next(5); arch > 0 {
		c := &Cloud{Arch: vcloud.Architecture(arch)} // 4 is no architecture
		switch next(4) {
		case 1:
			c.Config.Controller.Depend = &vcloud.DependabilityPolicy{Replicas: next(4) - 1, MaxRetries: 1}
		case 2:
			c.Security = &vcloud.Security{}
		case 3:
			ta, err := pki.New("TA", rand.New(rand.NewSource(1)), pki.Config{PoolSize: 2})
			if err != nil {
				panic(err)
			}
			c.Security = &vcloud.Security{TA: ta, Metrics: &auth.Metrics{}}
		}
		spec.Cloud = c
	}
	spec.Byzantine = []float64{0, 0.25, 1, -0.1, 1.5, nan}[next(6)]
	kinds := []faults.Kind{faults.Crash, faults.Recover, faults.RSUDown, faults.Partition, faults.Loss,
		faults.KillController, faults.KillMember, faults.Isolate, "bogus"}
	for n := next(3); n > 0; n-- {
		spec.Faults = append(spec.Faults, faults.Event{
			At:     []sim.Time{300 * time.Millisecond, 0, -time.Second, 700 * time.Millisecond}[next(4)],
			Kind:   kinds[next(len(kinds))],
			Target: next(6) - 1,
			Center: geo.Point{X: 100, Y: 15},
			Radius: []float64{80, 0}[next(2)],
			Prob:   []float64{0.3, 1.5}[next(2)],
			Dur:    []sim.Time{0, 200 * time.Millisecond}[next(2)],
		})
	}
	return spec
}
