// Package world is the one composer of simulated worlds: a validated
// Spec names the road preset, fleet, RSUs, cloud, liars and fault plan,
// and Build wires scenario, deployment and fault injector from it. Four
// decisions live here once: the presets' geometry, what a killed
// controller or member means (the injector's hooks), which members lie
// (the lowest IDs), and how a departed disk comes back or a killed
// member rejoins (drills.go). Workloads and invariants stay with the
// callers. Build never starts the clock (Start does): kernel scheduling
// order is part of the model, so a caller that needs the world before
// its cloud forms leaves Spec.Cloud nil and calls Deploy itself.
package world

import (
	"fmt"
	"math"
	"sort"

	"vcloud/internal/attack"
	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// Road is a road preset: Highway, ParkingLot or City.
type Road struct {
	kind    int     // 1 highway, 2 parking lot, 3 city
	lengthM float64 // corridor length or aisle length
	speed   float64 // highway speed limit, m/s
}

// Highway is the two-way, two-lane corridor along X, an interchange per km.
func Highway(lengthM, speedLimit float64) Road { return Road{1, lengthM, speedLimit} }

// ParkingLot is the four-aisle comb lot, aisles 40 m apart; vehicles park.
func ParkingLot(aisleLenM float64) Road { return Road{2, aisleLenM, 0} }

// City is the 5×5 Manhattan grid of 200 m blocks, one lane at 50 km/h.
func City() Road { return Road{3, 0, 0} }

// Gate is the parking lot's gate, the stationary cloud's coordinator site.
var Gate = geo.Point{X: 0, Y: 0}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (r Road) check() error {
	size := finite(r.lengthM) && r.lengthM > 0
	if r.kind == 1 && size && finite(r.speed) && r.speed > 0 || r.kind == 2 && size || r.kind == 3 {
		return nil
	}
	return fmt.Errorf("world: Road must be a Highway, ParkingLot or City preset with positive, finite sizes, got %+v", r)
}

// network builds the road graph of a checked preset.
func (r Road) network() (*roadnet.Network, error) {
	switch r.kind {
	case 1:
		return roadnet.Highway(roadnet.HighwaySpec{LengthM: r.lengthM, Segments: int(r.lengthM / 1000), SpeedLimit: r.speed, Lanes: 2})
	case 2:
		return roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: r.lengthM, AisleGapM: 40})
	}
	return roadnet.Grid(roadnet.GridSpec{Rows: 5, Cols: 5, Spacing: 200, SpeedLimit: 13.9, Lanes: 1})
}

// Across returns n RSU sites evenly spaced along the horizontal centre
// line of the road's bounds, ends excluded.
func (r Road) Across(n int) ([]geo.Point, error) {
	if err := r.check(); err != nil {
		return nil, err
	}
	net, err := r.network()
	if err != nil {
		return nil, err
	}
	b := net.Bounds()
	sites := make([]geo.Point, n)
	for i := range sites {
		sites[i] = geo.Point{X: b.Min.X + b.Width()*float64(i+1)/float64(n+1), Y: b.Center().Y}
	}
	return sites, nil
}

// Cloud is the vehicular cloud a world deploys; a set Security gates
// membership behind mutual authentication.
type Cloud struct {
	Arch     vcloud.Architecture
	Config   vcloud.DeployConfig
	Security *vcloud.Security
}

// Default is the examples' and vcloudsim's cloud: proactive handover on
// route-aware dwell estimates.
func Default(arch vcloud.Architecture) *Cloud {
	return &Cloud{Arch: arch, Config: vcloud.DeployConfig{Handover: true, DwellMode: mobility.DwellRouteAware}}
}

func (c Cloud) validate(rsus int) error {
	if c.Arch < vcloud.Stationary || c.Arch > vcloud.Dynamic || (c.Arch == vcloud.Infrastructure && rsus == 0) {
		return fmt.Errorf("world: Cloud.Arch must be stationary, dynamic, or infrastructure with RSUs; got %v", c.Arch)
	}
	if p := c.Config.Controller.Depend; p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("world: Cloud.Config: %w", err)
		}
	}
	if c.Security != nil && (c.Security.TA == nil || c.Security.Metrics == nil) {
		return fmt.Errorf("world: Cloud.Security needs a TA and a Metrics sink")
	}
	return nil
}

// Spec describes a world. A set BeaconPeriod replaces the 500 ms
// default. RSUs are sites in creation order (fault plans index them; a
// stationary cloud's coordinator is the first). Build deploys Cloud, nil
// leaving Deploy to the caller; Byzantine is the fraction of members,
// lowest IDs first, that lie on every result; Faults is scheduled last.
type Spec struct {
	Seed         int64
	Road         Road
	Vehicles     int
	BeaconPeriod sim.Time
	RSUs         []geo.Point
	Cloud        *Cloud
	Byzantine    float64
	Faults       faults.Plan
}

// Validate checks the spec; an error names the offending field.
func (s Spec) Validate() error {
	if err := s.Road.check(); err != nil {
		return err
	}
	switch {
	case s.Vehicles < 1:
		return fmt.Errorf("world: Vehicles must be >= 1, got %d", s.Vehicles)
	case s.BeaconPeriod < 0:
		return fmt.Errorf("world: BeaconPeriod must be >= 0, got %v", s.BeaconPeriod)
	case !(s.Byzantine >= 0 && s.Byzantine <= 1): // negated so NaN fails
		return fmt.Errorf("world: Byzantine must be in [0, 1], got %g", s.Byzantine)
	}
	for i, p := range s.RSUs {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("world: RSUs[%d] must be finite, got %v", i, p)
		}
	}
	if s.Cloud != nil {
		if err := s.Cloud.validate(len(s.RSUs)); err != nil {
			return err
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("world: Faults: %w", err)
	}
	return nil
}

// World is a built, not yet started, world. Stats collects the outcomes
// of every backend on it; Byzantine maps each liar to its tamper handle.
type World struct {
	Spec      Spec
	Scenario  *scenario.Scenario
	Cloud     *vcloud.Deployment // nil until deployed
	Stats     *vcloud.Stats
	Injector  *faults.Injector
	Byzantine map[vnet.Addr]*attack.ByzantineWorker
}

// Build validates the spec and composes its world: scenario, RSUs,
// injector with its kill and lie hooks, the cloud if set, and the fault plan.
func Build(spec Spec) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	net, err := spec.Road.network()
	if err != nil {
		return nil, err
	}
	s, err := scenario.New(scenario.Spec{Seed: spec.Seed, Network: net, NumVehicles: spec.Vehicles,
		BeaconPeriod: spec.BeaconPeriod, Parked: spec.Road.kind == 2})
	if err != nil {
		return nil, err
	}
	for _, p := range spec.RSUs {
		if _, err := s.AddRSU(p); err != nil {
			return nil, err
		}
	}
	inj, err := faults.NewInjector(s)
	if err != nil {
		return nil, err
	}
	w := &World{Spec: spec, Scenario: s, Stats: &vcloud.Stats{}, Injector: inj,
		Byzantine: make(map[vnet.Addr]*attack.ByzantineWorker)}
	// A killed controller crashes (a successor is failover's business); a
	// killed member's agent stops, its running work with it.
	inj.OnControllerKill(func(idx int) {
		if w.Cloud == nil {
			return
		}
		if ctls := w.Cloud.ActiveControllers(); idx >= 0 && idx < len(ctls) {
			ctls[idx].Crash()
		}
	})
	inj.OnMemberKill(func(id int) {
		if m, ok := w.members()[mobility.VehicleID(id)]; ok {
			m.Stop()
			delete(w.members(), mobility.VehicleID(id))
		}
	})
	// A lie or honest event flips a Byzantine worker; other nodes ignore it.
	inj.OnLie(func(addr int, on bool) {
		if b := w.Byzantine[vnet.Addr(addr)]; b != nil {
			b.SetActive(on)
		}
	})
	if spec.Cloud != nil {
		if err := w.Deploy(*spec.Cloud); err != nil {
			return nil, err
		}
	}
	if err := inj.Schedule(spec.Faults); err != nil {
		return nil, err
	}
	return w, nil
}

// Deploy deploys c and turns the lowest-ID Spec.Byzantine fraction of its
// members Byzantine.
func (w *World) Deploy(c Cloud) error {
	if w.Cloud != nil {
		return fmt.Errorf("world: cloud already deployed")
	}
	if err := c.validate(len(w.Spec.RSUs)); err != nil {
		return err
	}
	var err error
	if c.Security != nil {
		var sd *vcloud.SecureDeployment
		if sd, err = vcloud.DeploySecure(w.Scenario, c.Arch, c.Config, *c.Security, w.Stats); err == nil {
			w.Cloud = sd.Deployment
		}
	} else {
		w.Cloud, err = vcloud.Deploy(w.Scenario, c.Arch, c.Config, w.Stats)
	}
	if err != nil {
		return err
	}
	ids := w.memberIDs()
	for _, id := range ids[:int(math.Round(w.Spec.Byzantine*float64(len(ids))))] {
		m := w.Cloud.Members[id]
		if w.Byzantine[m.Addr()], err = attack.Byzantify(m, 1, nil); err != nil {
			return err
		}
	}
	return nil
}

// Start starts the clock and runs the world for warmup.
func (w *World) Start(warmup sim.Time) error {
	if err := w.Scenario.Start(); err != nil {
		return err
	}
	return w.Scenario.RunFor(warmup)
}

// members is the cloud's member table, empty before it deploys.
func (w *World) members() map[mobility.VehicleID]*vcloud.Member {
	if w.Cloud == nil {
		return nil
	}
	return w.Cloud.Members
}

// memberIDs lists the cloud's members in ascending vehicle ID.
func (w *World) memberIDs() []mobility.VehicleID {
	ids := make([]mobility.VehicleID, 0, len(w.members()))
	for id := range w.members() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
