package mobility

import (
	"math/rand"
	"testing"

	"vcloud/internal/roadnet"
)

// fleet is the surface TestStepMatchesScanModel drives on both managers.
type fleet interface {
	AddVehicle(e roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error)
	AddParkedVehicle(e roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error)
	Remove(id VehicleID)
	Step(dt float64)
	IDs(dst []VehicleID) []VehicleID
}

// fleetScript builds a world on f and returns what to do before each
// tick. It is run once per manager with identically seeded rngs, so it
// may only branch on rng draws and on f's own answers.
type fleetScript func(t *testing.T, f fleet, net *roadnet.Network, rng *rand.Rand) (beforeTick func(tick int))

func mustAdd(t *testing.T) func(VehicleID, error) VehicleID {
	return func(id VehicleID, err error) VehicleID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
}

func crawlProfile(factor float64) Profile {
	p := DefaultProfile()
	p.DesiredSpeedFactor = factor
	return p
}

// convoyNet is the cloud_storm road: a 16 km four-lane highway in four
// segments.
func convoyNet(t testing.TB) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 16000, Segments: 4, SpeedLimit: 27, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// addConvoy puts n crawling vehicles at seeded places within the first
// 300 m of edge 0 — thirty to a lane, bumper to bumper.
func addConvoy(t testing.TB, m *Manager, n int, rng *rand.Rand) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.AddVehicle(0, rng.Float64()*300, crawlProfile(0.2)); err != nil {
			t.Fatal(err)
		}
	}
}

func twoLaneGrid(t testing.TB) *roadnet.Network {
	t.Helper()
	n, err := roadnet.Grid(roadnet.GridSpec{Rows: 4, Cols: 4, Spacing: 200, SpeedLimit: 14, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var fleetScripts = map[string]struct {
	net    func(testing.TB) *roadnet.Network
	script fleetScript
}{
	// The cloud_storm shape: 120 vehicles wanting the same crawl speed,
	// joining a few per tick while the manager is already stepping.
	"convoy": {convoyNet, func(t *testing.T, f fleet, net *roadnet.Network, rng *rand.Rand) func(int) {
		must := mustAdd(t)
		return func(tick int) {
			if tick < 10 {
				for i := 0; i < 12; i++ {
					must(f.AddVehicle(0, rng.Float64()*300, crawlProfile(0.2)))
				}
			}
		}
	}},
	// City traffic with mixed desired speeds: lane changes, edge
	// hand-overs and trip ends (randFn draws) every few seconds.
	"grid": {twoLaneGrid, func(t *testing.T, f fleet, net *roadnet.Network, rng *rand.Rand) func(int) {
		must := mustAdd(t)
		for i := 0; i < 60; i++ {
			e := roadnet.EdgeID(rng.Intn(net.NumEdges()))
			must(f.AddVehicle(e, rng.Float64()*net.Edge(e).Length, crawlProfile(0.4+0.8*rng.Float64())))
		}
		return func(int) {}
	}},
	// Everything at once: parked obstacles in the lanes, arrivals and
	// departures mid-run.
	"mix": {twoLaneGrid, func(t *testing.T, f fleet, net *roadnet.Network, rng *rand.Rand) func(int) {
		must := mustAdd(t)
		place := func() (roadnet.EdgeID, float64) {
			e := roadnet.EdgeID(rng.Intn(net.NumEdges()))
			return e, rng.Float64() * net.Edge(e).Length
		}
		for i := 0; i < 12; i++ {
			e, off := place()
			must(f.AddParkedVehicle(e, off, DefaultProfile()))
		}
		for i := 0; i < 40; i++ {
			e, off := place()
			must(f.AddVehicle(e, off, crawlProfile(0.4+0.8*rng.Float64())))
		}
		var ids []VehicleID
		return func(tick int) {
			switch {
			case tick%37 == 5:
				e, off := place()
				must(f.AddVehicle(e, off, crawlProfile(0.4+0.8*rng.Float64())))
			case tick%53 == 7:
				ids = f.IDs(ids[:0])
				f.Remove(ids[rng.Intn(len(ids))])
			case tick%211 == 11:
				f.Remove(VehicleID(1 << 20)) // never issued: a no-op on both
			}
		}
	}},
}

// checkLanes asserts the Manager's structural invariants: every live
// vehicle sits in exactly the lane its record names, at the slot it
// records, and every lane is in (offset, id) order.
func checkLanes(t *testing.T, m *Manager, tick int) {
	t.Helper()
	seen := 0
	for e := range m.lanes {
		for li := range m.lanes[e] {
			vs := m.lanes[e][li].vs
			for i, v := range vs {
				seen++
				if v.slot != i || int(v.edge) != e || v.lane != li || m.vehicle(v.id) != v {
					t.Fatalf("tick %d: vehicle %d at edge %d lane %d slot %d records edge %d lane %d slot %d",
						tick, v.id, e, li, i, v.edge, v.lane, v.slot)
				}
				if i > 0 && !before(vs[i-1], v) {
					t.Fatalf("tick %d: edge %d lane %d out of order at slot %d: (%v, id %d) then (%v, id %d)",
						tick, e, li, i, vs[i-1].offset, vs[i-1].id, v.offset, v.id)
				}
			}
		}
	}
	if seen != m.NumVehicles() {
		t.Fatalf("tick %d: %d vehicles in lanes, %d live", tick, seen, m.NumVehicles())
	}
}

// TestStepMatchesScanModel drives the Manager and the scan model side by
// side from the same seeds and requires the same fleet, bit for bit,
// after every tick. Fixtures draw distinct offsets: with two vehicles
// level ahead of a follower at unequal speeds the model's answer depends
// on its lane history (TestLeaderTieIsLowestID).
func TestStepMatchesScanModel(t *testing.T) {
	ticks := 2000
	if testing.Short() {
		ticks = 400
	}
	for name, fx := range fleetScripts {
		for seed := int64(1); seed <= 5; seed++ {
			net := fx.net(t)
			var draws, modelDraws int
			tripRNG, modelTripRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			m, err := NewManager(net, func(n int) int { draws++; return tripRNG.Intn(n) })
			if err != nil {
				t.Fatal(err)
			}
			model := newScanManager(net, func(n int) int { modelDraws++; return modelTripRNG.Intn(n) })
			script := fx.script(t, m, net, rand.New(rand.NewSource(seed+100)))
			modelScript := fx.script(t, model, net, rand.New(rand.NewSource(seed+100)))

			var ids, modelIDs []VehicleID
			for tick := 0; tick < ticks; tick++ {
				script(tick)
				modelScript(tick)
				m.Step(0.1)
				model.Step(0.1)

				ids, modelIDs = m.IDs(ids[:0]), model.IDs(modelIDs[:0])
				if len(ids) != len(modelIDs) || len(ids) != m.NumVehicles() {
					t.Fatalf("%s seed %d tick %d: %d ids (NumVehicles %d), model has %d", name, seed, tick, len(ids), m.NumVehicles(), len(modelIDs))
				}
				for i, id := range ids {
					if id != modelIDs[i] {
						t.Fatalf("%s seed %d tick %d: ids[%d] = %d, model %d", name, seed, tick, i, id, modelIDs[i])
					}
					got, _ := m.State(id)
					want, _ := model.State(id)
					if got != want {
						t.Fatalf("%s seed %d tick %d: vehicle %d\n got  %+v\n want %+v", name, seed, tick, id, got, want)
					}
					if lane, want := m.vehicles[id].lane, model.vehicles[id].lane; lane != want {
						t.Fatalf("%s seed %d tick %d: vehicle %d in lane %d, model %d", name, seed, tick, id, lane, want)
					}
					if p, ok := m.Pos(id); !ok || p != want.Pos {
						t.Fatalf("%s seed %d tick %d: Pos(%d) = %v, %v; State says %v", name, seed, tick, id, p, ok, want.Pos)
					}
				}
				if draws != modelDraws {
					t.Fatalf("%s seed %d tick %d: %d randFn draws, model %d", name, seed, tick, draws, modelDraws)
				}
				checkLanes(t, m, tick)
			}
			if name != "convoy" && draws == 0 {
				t.Errorf("%s seed %d: no trip ended, so no randFn draw was compared", name, seed)
			}
		}
	}
}

// TestLeaderTieIsLowestID pins the rule for two vehicles level with each
// other ahead of a follower: the lower id leads, whatever order they
// entered the lane in. The scan model answered with whichever its
// unordered lane listed first, so two managers in the same state could
// disagree; the test shows that on the model, then that the Manager does
// not.
func TestLeaderTieIsLowestID(t *testing.T) {
	net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 5000, Segments: 1, SpeedLimit: 30, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One lane: twins 0 and 1 level at 100 m, follower 2 at 50 m.
	build := func(f fleet) {
		must := mustAdd(t)
		must(f.AddVehicle(0, 100, DefaultProfile()))
		must(f.AddVehicle(0, 100, DefaultProfile()))
		must(f.AddVehicle(0, 50, DefaultProfile()))
	}
	const slowTwin, fastTwin = 3.0, 7.0

	// hop takes the low twin out of its lane and puts it straight back: a
	// lane change and its return, as far as the lane's bookkeeping goes.
	for _, hop := range []bool{false, true} {
		model := newScanManager(net, rand.New(rand.NewSource(1)).Intn)
		build(model)
		model.vehicles[0].speed, model.vehicles[1].speed = slowTwin, fastTwin
		if hop {
			model.removeFromLane(model.vehicles[0])
			model.addToLane(model.vehicles[0])
		}
		_, leaderSpeed, _ := model.leaderGap(model.vehicles[2])
		if want := map[bool]float64{false: slowTwin, true: fastTwin}[hop]; leaderSpeed != want {
			t.Fatalf("scan model, hop=%v: leader speed %v, want %v (the fixture no longer shows the history dependence)", hop, leaderSpeed, want)
		}

		m := newTestManager(t, net, 1)
		build(m)
		m.vehicles[0].speed, m.vehicles[1].speed = slowTwin, fastTwin
		if hop {
			m.laneOf(m.vehicles[0]).remove(m.vehicles[0])
			m.laneOf(m.vehicles[0]).insert(m.vehicles[0])
		}
		checkLanes(t, m, 0)
		gap, leaderSpeed, ok := m.leaderGap(m.vehicles[2])
		if !ok || gap != 50 || leaderSpeed != slowTwin {
			t.Errorf("hop=%v: leaderGap = (%v, %v, %v), want (50, %v, true): the lower id leads", hop, gap, leaderSpeed, ok, slowTwin)
		}
		// The twins are level, so neither leads the other.
		if _, _, ok := m.leaderGap(m.vehicles[0]); ok {
			t.Errorf("hop=%v: twin 0 has a leader", hop)
		}
		if _, _, ok := m.leaderGap(m.vehicles[1]); ok {
			t.Errorf("hop=%v: twin 1 has a leader", hop)
		}
		// And the rule reaches the dynamics: the follower brakes for a
		// leader doing slowTwin, not fastTwin.
		want := idmAccel(m.vehicles[2].profile, 0, 30, 50, slowTwin, true) * 0.1
		m.Step(0.1)
		if st, _ := m.State(2); st.Speed != want {
			t.Errorf("hop=%v: follower speed after one step %v, want %v", hop, st.Speed, want)
		}
	}
}

// TestStepAllocsSteadyState holds Step at zero allocations once its
// buffers are warm (no trip ends inside the window: the convoy is
// kilometres from the end of its edge).
func TestStepAllocsSteadyState(t *testing.T) {
	m := newTestManager(t, convoyNet(t), 1)
	addConvoy(t, m, 120, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		m.Step(0.1)
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Step(0.1) }); allocs != 0 {
		t.Errorf("Step allocates %v times per tick, want 0", allocs)
	}
}

// BenchmarkStepConvoy steps the cloud_storm fleet: 120 vehicles crawling
// thirty to a lane on one four-lane highway edge, where every vehicle
// has a leader within metres. (BenchmarkStep200Vehicles spreads its cars
// over 120 grid edges and never sees a lane longer than two.)
func BenchmarkStepConvoy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewManager(convoyNet(b), rng.Intn)
	if err != nil {
		b.Fatal(err)
	}
	addConvoy(b, m, 120, rng)
	for i := 0; i < 100; i++ {
		m.Step(0.1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(0.1)
	}
}
