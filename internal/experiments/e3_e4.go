package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/cluster"
	"vcloud/internal/metrics"
	"vcloud/internal/roadnet"
	"vcloud/internal/routing"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// E3ClusterStability measures cluster-head churn and clustered time for
// the three clustering algorithms across vehicle speeds — the §IV.A.1
// claim that mobility-aware head election stabilizes clusters.
func E3ClusterStability(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 30, 60)
	runFor := sim.Time(pick(cfg, 60, 300)) * time.Second
	speeds := []float64{15, 30}
	if !cfg.Quick {
		speeds = []float64{10, 20, 30, 40}
	}

	table := metrics.NewTable(
		"E3 — Cluster stability vs speed",
		"algorithm", "speed m/s", "head-chg/node/min", "clustered %", "clusters",
	)
	values := map[string]float64{}

	algos := []cluster.Algorithm{
		cluster.LowestID{},
		cluster.MobilitySimilarity{},
		cluster.PassiveMultiHop{MaxHops: 2},
	}
	type sweep struct {
		algo  cluster.Algorithm
		speed float64
	}
	var sweeps []sweep
	for _, algo := range algos {
		for _, speed := range speeds {
			sweeps = append(sweeps, sweep{algo, speed})
		}
	}
	err := assemble(cfg, table, values, len(sweeps), func(i int, p *point) error {
		algo, speed := sweeps[i].algo, sweeps[i].speed
		net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: speed, Lanes: 2})
		if err != nil {
			return err
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: vehicles})
		if err != nil {
			return err
		}
		tracker := cluster.NewTracker()
		runners := make([]*cluster.Runner, 0, vehicles)
		for _, id := range s.VehicleIDs() {
			node, _ := s.Node(id)
			r, err := cluster.NewRunner(node, algo, time.Second, tracker)
			if err != nil {
				return err
			}
			runners = append(runners, r)
		}
		if err := s.Start(); err != nil {
			return err
		}
		if err := s.RunFor(runFor); err != nil {
			return err
		}
		tracker.Finish(s.Kernel.Now())

		churn := tracker.HeadChangesPerNodeMinute(vehicles, runFor)
		clustered := tracker.MeanClusteredSeconds() / runFor.Seconds()
		if clustered > 1 {
			clustered = 1
		}
		heads := 0
		for _, r := range runners {
			if r.State().Role == cluster.Head {
				heads++
			}
		}
		p.addRow(algo.Name(), fmt.Sprintf("%.0f", speed),
			fmt.Sprintf("%.2f", churn), metrics.Pct(clustered), fmt.Sprintf("%d", heads))
		key := fmt.Sprintf("%s/%.0f", algo.Name(), speed)
		p.set(key+"/churn", churn)
		p.set(key+"/clustered", clustered)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E3", Title: "cluster stability", Table: table, Values: values}, nil
}

// E4Routing compares MoZo against greedy-geographic, AODV and epidemic
// flooding across vehicle densities: delivery ratio, median delay, and
// transmissions per delivery (the §IV.A.1 routing discussion, with MoZo
// [22] as the authors' own system).
func E4Routing(cfg Config) (*Result, error) {
	densities := []int{20, 40}
	if !cfg.Quick {
		densities = []int{15, 30, 60, 90}
	}
	packets := pick(cfg, 40, 150)
	warm := 10 * time.Second
	window := sim.Time(pick(cfg, 60, 150)) * time.Second

	table := metrics.NewTable(
		"E4 — Routing protocols vs density",
		"protocol", "vehicles", "delivery", "p50 delay", "tx/delivery",
	)
	values := map[string]float64{}

	type mk struct {
		name string
		make func(s *scenario.Scenario, node *vnet.Node, st *routing.Stats, loc *routing.StaleLoc) (routing.Router, error)
	}
	// Geographic protocols originate against a realistic (stale)
	// location service; MoZo heads refresh stamps from fresh zone
	// knowledge — the design point of [22]. Each sweep point owns one
	// StaleLoc shared by all its routers.
	makers := []mk{
		{"mozo", func(s *scenario.Scenario, node *vnet.Node, st *routing.Stats, loc *routing.StaleLoc) (routing.Router, error) {
			r, err := cluster.NewRunner(node, cluster.MobilitySimilarity{}, time.Second, nil)
			if err != nil {
				return nil, err
			}
			cfg := routing.GeoConfig{Loc: loc, ZoneLoc: routing.OracleLoc{Positions: s.Medium}}
			return routing.NewMoZo(node, st, cfg, r.State, nil)
		}},
		{"greedy", func(s *scenario.Scenario, node *vnet.Node, st *routing.Stats, loc *routing.StaleLoc) (routing.Router, error) {
			return routing.NewGreedy(node, st, routing.GeoConfig{Loc: loc}, nil)
		}},
		{"aodv", func(s *scenario.Scenario, node *vnet.Node, st *routing.Stats, loc *routing.StaleLoc) (routing.Router, error) {
			return routing.NewAODV(node, st, nil)
		}},
		{"epidemic", func(s *scenario.Scenario, node *vnet.Node, st *routing.Stats, loc *routing.StaleLoc) (routing.Router, error) {
			return routing.NewEpidemic(node, st, nil)
		}},
	}

	type sweep struct {
		m       mk
		density int
	}
	var sweeps []sweep
	for _, m := range makers {
		for _, density := range densities {
			sweeps = append(sweeps, sweep{m, density})
		}
	}
	err := assemble(cfg, table, values, len(sweeps), func(i int, p *point) error {
		m, density := sweeps[i].m, sweeps[i].density
		net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 27, Lanes: 2})
		if err != nil {
			return err
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: density})
		if err != nil {
			return err
		}
		loc := routing.NewStaleLoc(routing.OracleLoc{Positions: s.Medium}, s.Kernel.Now, 20*time.Second)
		stats := &routing.Stats{}
		var routers []routing.Router
		for _, id := range s.VehicleIDs() {
			node, _ := s.Node(id)
			rt, err := m.make(s, node, stats, loc)
			if err != nil {
				return err
			}
			routers = append(routers, rt)
		}
		if err := s.Start(); err != nil {
			return err
		}
		if err := s.RunFor(warm); err != nil {
			return err
		}
		rng := s.Kernel.NewStream("traffic")
		gap := window / sim.Time(packets+1)
		for i := 0; i < packets; i++ {
			s.Kernel.After(sim.Time(i)*gap, func() {
				src := routers[rng.Intn(len(routers))]
				ids := s.VehicleIDs()
				dst := vnet.Addr(ids[rng.Intn(len(ids))])
				_ = src.Send(dst, 500, nil)
			})
		}
		if err := s.RunFor(window + 20*time.Second); err != nil {
			return err
		}
		p.addRow(m.name, fmt.Sprintf("%d", density),
			metrics.Pct(stats.DeliveryRatio()),
			metrics.Ms(stats.Latency.Percentile(50)),
			fmt.Sprintf("%.1f", stats.OverheadPerDelivery()))
		key := fmt.Sprintf("%s/%d", m.name, density)
		p.set(key+"/delivery", stats.DeliveryRatio())
		p.set(key+"/overhead", stats.OverheadPerDelivery())
		p.set(key+"/p50ms", stats.Latency.Percentile(50))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E4", Title: "routing", Table: table, Values: values}, nil
}
