package main

import (
	"vcloud"
	"vcloud/internal/mobility"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
)

// Adapter for roadnet and scenario. The facade's scenario constructors
// build the road network and the scenario in one call; the ledger wants
// the two timed apart, so the benchmark calls the constructors itself.

type roadNetwork = roadnet.Network

// buildWorld builds a road network, then a scenario over it, each under
// its own span. spec.Network is filled in.
func buildWorld(tr *tracer, mkNet func() (*roadNetwork, error), spec vcloud.ScenarioSpec) (*vcloud.Scenario, error) {
	id := tr.begin("roadnet.build", -1)
	net, err := mkNet()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	spec.Network = net
	id = tr.begin("scenario.New", -1)
	s, err := scenario.New(spec)
	tr.end(id)
	return s, err
}

func cityGrid(blocks int) func() (*roadNetwork, error) {
	return func() (*roadNetwork, error) {
		return roadnet.Grid(roadnet.GridSpec{Rows: blocks, Cols: blocks, Spacing: 200, SpeedLimit: 13.9, Lanes: 1})
	}
}

func highway(lengthM float64) func() (*roadNetwork, error) {
	return func() (*roadNetwork, error) {
		return roadnet.Highway(roadnet.HighwaySpec{LengthM: lengthM, Segments: 4, SpeedLimit: 27, Lanes: 4})
	}
}

func parkingLot(aisles int) func() (*roadNetwork, error) {
	return func() (*roadNetwork, error) {
		return roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: aisles, AisleLenM: 200, AisleGapM: 40})
	}
}

// probeShortestPath times route planning between seeded node pairs of
// the workload's own road network (what a vehicle does at each trip end).
func probeShortestPath(layer map[string]float64, net *roadNetwork, seed int64) {
	n := net.NumNodes()
	if n < 2 {
		return
	}
	rng := stream(seed, "probe.paths")
	const calls = 2000
	pairs := make([][2]roadnet.NodeID, calls)
	for i := range pairs {
		pairs[i] = [2]roadnet.NodeID{roadnet.NodeID(rng.Intn(n)), roadnet.NodeID(rng.Intn(n))}
	}
	layer["roadnet.probe_shortest_path_ns"] = perCallNs(calls, func() {
		for _, p := range pairs {
			_, _ = net.ShortestPath(p[0], p[1]) // unreachable pairs cost the same search
		}
	})
}

// addVehicle spawns one moving vehicle at a fraction of the way along an
// edge of the scenario's network (both chosen by the benchmark from its
// seed) and returns its id. speedFactor scales the speed limit into the
// vehicle's desired speed (1 = drives at the limit).
func addVehicle(s *vcloud.Scenario, edge int, frac, speedFactor float64) (vcloud.VehicleID, error) {
	e := roadnet.EdgeID(edge)
	p := mobility.DefaultProfile()
	p.DesiredSpeedFactor = speedFactor
	return s.AddVehicle(e, frac*s.Network.Edge(e).Length, p)
}
