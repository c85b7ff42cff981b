// Package scenario wires the simulation substrates together: a kernel, a
// radio medium, a mobility manager, and one vnet node per vehicle (plus
// optional road-side units). Every experiment, example and integration
// test builds on this package instead of repeating the plumbing.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// RSUBase is the address offset for road-side units; vehicle addresses
// equal their mobility.VehicleID (starting at 0).
const RSUBase vnet.Addr = 1 << 20

// IsRSU reports whether an address belongs to a road-side unit.
func IsRSU(a vnet.Addr) bool { return a >= RSUBase }

// mobilityTick is the kinematics timestep.
const mobilityTick = 100 * time.Millisecond

// Spec configures a scenario.
type Spec struct {
	// Seed drives all randomness.
	Seed int64
	// Network is the road network; required.
	Network *roadnet.Network
	// NumVehicles are spawned at random edge positions.
	NumVehicles int
	// Radio configures the medium; zero value means radio.DefaultParams.
	Radio radio.Params
	// BeaconPeriod for all nodes; default 500 ms.
	BeaconPeriod sim.Time
	// Profile returns the profile for the i-th vehicle; nil means
	// mobility.DefaultProfile for all.
	Profile func(i int) mobility.Profile
	// Parked makes all vehicles stationary (parking-lot scenarios).
	Parked bool
}

// Scenario is a wired simulation.
type Scenario struct {
	Kernel   *sim.Kernel
	Medium   *radio.Medium
	Mobility *mobility.Manager
	Network  *roadnet.Network
	// Nodes maps vehicle IDs to their vnet endpoints.
	Nodes map[mobility.VehicleID]*vnet.Node
	// RSUs lists road-side unit endpoints in creation order.
	RSUs []*vnet.Node

	spec    Spec
	nextRSU vnet.Addr
	started bool
}

// New builds (but does not start) a scenario.
func New(spec Spec) (*Scenario, error) {
	if spec.Network == nil {
		return nil, fmt.Errorf("scenario: network is required")
	}
	if spec.NumVehicles < 0 {
		return nil, fmt.Errorf("scenario: NumVehicles must be >= 0, got %d", spec.NumVehicles)
	}
	if spec.Radio.RangeMax == 0 {
		spec.Radio = radio.DefaultParams()
	}
	if spec.BeaconPeriod <= 0 {
		spec.BeaconPeriod = 500 * time.Millisecond
	}

	kernel := sim.NewKernel(spec.Seed)
	medium, err := radio.NewMedium(kernel, spec.Network.Bounds(), spec.Radio)
	if err != nil {
		return nil, err
	}
	mobRNG := kernel.NewStream("mobility")
	mob, err := mobility.NewManager(spec.Network, spec.Radio.RangeMax, mobRNG.Intn)
	if err != nil {
		return nil, err
	}
	s := &Scenario{
		Kernel:   kernel,
		Medium:   medium,
		Mobility: mob,
		Network:  spec.Network,
		Nodes:    make(map[mobility.VehicleID]*vnet.Node),
		spec:     spec,
		nextRSU:  RSUBase,
	}

	placeRNG := kernel.NewStream("placement")
	for i := 0; i < spec.NumVehicles; i++ {
		profile := mobility.DefaultProfile()
		if spec.Profile != nil {
			profile = spec.Profile(i)
		}
		e := roadnet.EdgeID(placeRNG.Intn(spec.Network.NumEdges()))
		off := placeRNG.Float64() * spec.Network.Edge(e).Length
		var id mobility.VehicleID
		if spec.Parked {
			id, err = mob.AddParkedVehicle(e, off, profile)
		} else {
			id, err = mob.AddVehicle(e, off, profile)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: placing vehicle %d: %w", i, err)
		}
		if err := s.attachNode(id); err != nil {
			return nil, err
		}
	}

	// Vehicles that depart must leave the radio medium too.
	mob.OnDeparture(func(id mobility.VehicleID) {
		if n, ok := s.Nodes[id]; ok {
			n.Stop()
			delete(s.Nodes, id)
		}
	})
	return s, nil
}

func (s *Scenario) attachNode(id mobility.VehicleID) error {
	addr := vnet.Addr(id)
	cfg := vnet.Config{BeaconPeriod: s.spec.BeaconPeriod}
	node, err := vnet.NewNode(s.Kernel, s.Medium, addr, cfg, func() (geo.Point, float64, float64) {
		st, ok := s.Mobility.State(id)
		if !ok {
			return geo.Point{}, 0, 0
		}
		return st.Pos, st.Speed, st.Heading
	})
	if err != nil {
		return err
	}
	s.Nodes[id] = node
	if st, ok := s.Mobility.State(id); ok {
		s.Medium.UpdatePosition(addr, st.Pos)
	}
	return nil
}

// AddVehicle spawns one more vehicle mid-run and returns its ID.
func (s *Scenario) AddVehicle(e roadnet.EdgeID, off float64, profile mobility.Profile) (mobility.VehicleID, error) {
	id, err := s.Mobility.AddVehicle(e, off, profile)
	if err != nil {
		return 0, err
	}
	if err := s.attachNode(id); err != nil {
		return 0, err
	}
	if s.started {
		if err := s.Nodes[id].Start(); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// AddRSU places a road-side unit at pos and returns its node.
func (s *Scenario) AddRSU(pos geo.Point) (*vnet.Node, error) {
	addr := s.nextRSU
	s.nextRSU++
	cfg := vnet.Config{BeaconPeriod: s.spec.BeaconPeriod}
	node, err := vnet.NewNode(s.Kernel, s.Medium, addr, cfg, func() (geo.Point, float64, float64) {
		return pos, 0, 0
	})
	if err != nil {
		return nil, err
	}
	s.Medium.UpdatePosition(addr, pos)
	s.RSUs = append(s.RSUs, node)
	if s.started {
		if err := node.Start(); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// Start begins mobility ticking and beaconing. Call once before Run.
func (s *Scenario) Start() error {
	if s.started {
		return fmt.Errorf("scenario: already started")
	}
	s.started = true
	dt := mobilityTick.Seconds()
	var fleet []mobility.VehicleID
	if _, err := s.Kernel.Every(mobilityTick, func() {
		s.Mobility.Step(dt)
		// Push fresh positions into the radio medium. Every live vehicle
		// has a node: attachNode and the departure hook keep Nodes and the
		// manager's fleet in step.
		fleet = s.Mobility.IDs(fleet[:0])
		for _, id := range fleet {
			if p, ok := s.Mobility.Pos(id); ok {
				s.Medium.UpdatePosition(vnet.Addr(id), p)
			}
		}
	}); err != nil {
		return err
	}
	// Start nodes in address order: ticker creation order decides beacon
	// firing order at equal timestamps, which must not depend on map
	// iteration for runs to be reproducible.
	ids := s.sortedVehicleIDs()
	for _, id := range ids {
		if err := s.Nodes[id].Start(); err != nil {
			return err
		}
	}
	for _, n := range s.RSUs {
		if err := n.Start(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Scenario) sortedVehicleIDs() []mobility.VehicleID {
	ids := make([]mobility.VehicleID, 0, len(s.Nodes))
	for id := range s.Nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Run advances the simulation to the given horizon.
func (s *Scenario) Run(horizon sim.Time) error {
	return s.Kernel.Run(horizon)
}

// RunFor advances the simulation by d from now.
func (s *Scenario) RunFor(d sim.Time) error {
	return s.Kernel.Run(s.Kernel.Now() + d)
}

// VehicleIDs returns all live vehicle IDs in ascending order. The order
// is load-bearing: callers iterate it to create protocol agents, and
// creation order decides event ordering at equal timestamps — it must
// not depend on map iteration for runs to reproduce.
func (s *Scenario) VehicleIDs() []mobility.VehicleID {
	return s.Mobility.IDs(nil)
}

// Node returns the vnet node of a vehicle.
func (s *Scenario) Node(id mobility.VehicleID) (*vnet.Node, bool) {
	n, ok := s.Nodes[id]
	return n, ok
}
