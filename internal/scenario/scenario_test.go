package scenario

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
)

func gridSpec(t testing.TB, vehicles int) Spec {
	t.Helper()
	net, err := roadnet.Grid(roadnet.GridSpec{Rows: 3, Cols: 3, Spacing: 200, SpeedLimit: 14, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Seed: 1, Network: net, NumVehicles: vehicles}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{}); err == nil {
		t.Error("missing network should error")
	}
	s := gridSpec(t, 0)
	s.NumVehicles = -1
	if _, err := New(s); err == nil {
		t.Error("negative vehicles should error")
	}
}

func TestScenarioWiring(t *testing.T) {
	s, err := New(gridSpec(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 20 || s.Mobility.NumVehicles() != 20 {
		t.Fatalf("nodes=%d vehicles=%d", len(s.Nodes), s.Mobility.NumVehicles())
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("double Start should error")
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After 5 s of beaconing, most vehicles should have neighbors.
	withNeighbors := 0
	for _, id := range s.VehicleIDs() {
		n, ok := s.Node(id)
		if !ok {
			t.Fatalf("node for %d missing", id)
		}
		if n.NumNeighbors() > 0 {
			withNeighbors++
		}
	}
	if withNeighbors < 10 {
		t.Errorf("only %d/20 vehicles have neighbors", withNeighbors)
	}
	// Radio positions must track mobility.
	for _, id := range s.VehicleIDs() {
		st, _ := s.Mobility.State(id)
		p, ok := s.Medium.Position(radio.NodeID(id))
		if !ok {
			t.Fatalf("vehicle %d missing from medium", id)
		}
		if p.Dist(st.Pos) > 20 { // at most one tick of drift
			t.Errorf("vehicle %d medium pos %v vs mobility %v", id, p, st.Pos)
		}
	}
}

func TestAddRSUAndMidRunVehicle(t *testing.T) {
	s, err := New(gridSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	rsu, err := s.AddRSU(geo.Point{X: 200, Y: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !IsRSU(rsu.Addr()) {
		t.Errorf("RSU addr %d not in RSU space", rsu.Addr())
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// RSU added mid-run should also beacon; place it at the origin where
	// the mid-run vehicle spawns so they are within reliable range.
	rsu2, err := s.AddRSU(geo.Point{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.AddVehicle(0, 0, mobility.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	n, ok := s.Node(id)
	if !ok {
		t.Fatal("mid-run vehicle has no node")
	}
	if n.NumNeighbors() == 0 {
		t.Error("mid-run vehicle never heard a beacon")
	}
	if rsu2.NumNeighbors() == 0 {
		t.Error("mid-run RSU has no neighbors")
	}
}

func TestParkedScenario(t *testing.T) {
	spec := gridSpec(t, 10)
	spec.Parked = true
	s, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	before := map[mobility.VehicleID]geo.Point{}
	for _, id := range s.VehicleIDs() {
		st, _ := s.Mobility.State(id)
		before[id] = st.Pos
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id, p := range before {
		st, _ := s.Mobility.State(id)
		if st.Pos != p {
			t.Errorf("parked vehicle %d moved", id)
		}
	}
}

func TestDeterministicScenario(t *testing.T) {
	run := func() uint64 {
		s, err := New(gridSpec(t, 15))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return s.Medium.Stats().Delivered
	}
	if a, b := run(), run(); a != b {
		t.Errorf("scenario not deterministic: %d vs %d deliveries", a, b)
	}
}
