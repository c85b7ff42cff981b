package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
)

// E1CloudComparison reproduces Fig. 2's qualitative comparison as a
// measured table: the same task workload runs against a conventional
// cloud (healthy LTE uplink, large datacenter), a mobile-cloud stand-in
// (slower uplink, modest compute), and a dynamic vehicular cloud — first
// with infrastructure healthy, then during an uplink outage (the
// "infrastructure reliance" row of Fig. 2 made operational).
func E1CloudComparison(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 25, 60)
	tasks := pick(cfg, 20, 80)
	phase := sim.Time(pick(cfg, 60, 180)) * time.Second

	type arm struct {
		name   string
		mkBack func(s *scenario.Scenario, stats *vcloud.Stats) (vcloud.Backend, *radio.Uplink, error)
	}
	arms := []arm{
		{"conventional", func(s *scenario.Scenario, stats *vcloud.Stats) (vcloud.Backend, *radio.Uplink, error) {
			up, err := radio.NewUplink(s.Kernel, radio.UplinkParams{
				BaseRTT: 60 * time.Millisecond, BandwidthMbps: 20, LossProb: 0.01, JitterFrac: 0.2,
			})
			if err != nil {
				return nil, nil, err
			}
			b, err := vcloud.NewRemoteCloud("conventional", s.Kernel, up, 50_000, stats)
			return b, up, err
		}},
		{"mobile", func(s *scenario.Scenario, stats *vcloud.Stats) (vcloud.Backend, *radio.Uplink, error) {
			up, err := radio.NewUplink(s.Kernel, radio.UplinkParams{
				BaseRTT: 90 * time.Millisecond, BandwidthMbps: 5, LossProb: 0.03, JitterFrac: 0.3,
			})
			if err != nil {
				return nil, nil, err
			}
			b, err := vcloud.NewRemoteCloud("mobile", s.Kernel, up, 5_000, stats)
			return b, up, err
		}},
		{"vehicular", nil},
	}

	table := metrics.NewTable(
		"E1 — Conventional vs mobile vs vehicular cloud (Fig. 2)",
		"backend", "healthy compl.", "healthy p50", "outage compl.", "infra reliance",
	)
	values := map[string]float64{}

	err := assemble(cfg, table, values, len(arms), func(i int, p *point) error {
		a := arms[i]
		net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 25, Lanes: 2})
		if err != nil {
			return err
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: vehicles})
		if err != nil {
			return err
		}
		stats := &vcloud.Stats{}
		var backend vcloud.Backend
		var uplink *radio.Uplink
		var dep *vcloud.Deployment
		if a.mkBack != nil {
			backend, uplink, err = a.mkBack(s, stats)
			if err != nil {
				return err
			}
		} else {
			dep, err = vcloud.Deploy(s, vcloud.Dynamic, vcloud.DeployConfig{}, stats)
			if err != nil {
				return err
			}
		}
		if err := s.Start(); err != nil {
			return err
		}
		if err := s.RunFor(10 * time.Second); err != nil {
			return err
		}

		submit := func(n int) {
			for i := 0; i < n; i++ {
				task := vcloud.Task{Ops: 2000, InputBytes: 4000, OutputBytes: 2000}
				if backend != nil {
					_ = backend.Submit(task, nil)
				} else {
					_ = dep.SubmitAnywhere(task, nil)
				}
			}
		}

		// Phase 1: healthy.
		submit(tasks)
		if err := s.RunFor(phase); err != nil {
			return err
		}
		healthyDone := stats.Completed.Value()
		healthyP50 := stats.Latency.Percentile(50)

		// Phase 2: infrastructure outage.
		if uplink != nil {
			uplink.SetAvailable(false)
		}
		before := stats.Completed.Value()
		submit(tasks)
		if err := s.RunFor(phase); err != nil {
			return err
		}
		outageDone := stats.Completed.Value() - before

		healthyRate := float64(healthyDone) / float64(tasks)
		outageRate := float64(outageDone) / float64(tasks)
		reliance := healthyRate - outageRate // how much dies with the infra
		p.addRow(a.name,
			metrics.Pct(healthyRate), metrics.Ms(healthyP50),
			metrics.Pct(outageRate), fmt.Sprintf("%.2f", reliance),
		)
		p.set(a.name+"/healthy", healthyRate)
		p.set(a.name+"/outage", outageRate)
		p.set(a.name+"/p50ms", healthyP50)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E1", Title: "cloud comparison", Table: table, Values: values}, nil
}

// E2Architectures reproduces Fig. 4: the three vehicular-cloud
// architectures run the same workload on their natural scenarios, then
// infrastructure is destroyed ("disaster", §V.A) and the workload
// repeats — dynamic clouds should degrade least.
func E2Architectures(cfg Config) (*Result, error) {
	tasks := pick(cfg, 15, 60)
	phase := sim.Time(pick(cfg, 60, 180)) * time.Second

	table := metrics.NewTable(
		"E2 — Stationary vs infrastructure-based vs dynamic v-clouds (Fig. 4)",
		"architecture", "members", "healthy compl.", "disaster compl.",
	)
	values := map[string]float64{}

	type arm struct {
		name string
		arch vcloud.Architecture
	}
	arms := []arm{
		{"stationary", vcloud.Stationary},
		{"infrastructure", vcloud.Infrastructure},
		{"dynamic", vcloud.Dynamic},
	}
	err := assemble(cfg, table, values, len(arms), func(i int, p *point) error {
		a := arms[i]
		var s *scenario.Scenario
		var err error
		switch a.arch {
		case vcloud.Stationary:
			net, nerr := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: 150, AisleGapM: 40})
			if nerr != nil {
				return nerr
			}
			s, err = scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: pick(cfg, 15, 40), Parked: true})
			if err != nil {
				return err
			}
			if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
				return err
			}
		default:
			net, nerr := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 25, Lanes: 2})
			if nerr != nil {
				return nerr
			}
			s, err = scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: pick(cfg, 25, 60)})
			if err != nil {
				return err
			}
			if a.arch == vcloud.Infrastructure {
				for _, x := range []float64{500, 1500, 2500} {
					if _, err := s.AddRSU(geo.Point{X: x, Y: 15}); err != nil {
						return err
					}
				}
			}
		}
		stats := &vcloud.Stats{}
		dep, err := vcloud.Deploy(s, a.arch, vcloud.DeployConfig{}, stats)
		if err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		if err := s.RunFor(10 * time.Second); err != nil {
			return err
		}

		members := 0
		for _, c := range dep.ActiveControllers() {
			members += c.NumMembers()
		}

		submit := func(n int) int {
			sent := 0
			for i := 0; i < n; i++ {
				if err := dep.SubmitAnywhere(vcloud.Task{Ops: 2000, InputBytes: 2000, OutputBytes: 1000}, nil); err == nil {
					sent++
				}
			}
			return sent
		}
		submit(tasks)
		if err := s.RunFor(phase); err != nil {
			return err
		}
		healthy := float64(stats.Completed.Value()) / float64(tasks)

		// Disaster: every RSU dies. Stationary and infrastructure clouds
		// lose their controllers; dynamic does not use any.
		for _, rsu := range s.RSUs {
			rsu.Stop()
		}
		for _, c := range dep.ActiveControllers() {
			if scenario.IsRSU(c.Addr()) {
				c.Stop()
			}
		}
		dep.SetEmergency(true)
		before := stats.Completed.Value()
		submitted := submit(tasks)
		if err := s.RunFor(phase); err != nil {
			return err
		}
		disaster := float64(stats.Completed.Value()-before) / float64(tasks)
		_ = submitted

		p.addRow(a.name, fmt.Sprintf("%d", members), metrics.Pct(healthy), metrics.Pct(disaster))
		p.set(a.name+"/healthy", healthy)
		p.set(a.name+"/disaster", disaster)
		p.set(a.name+"/members", float64(members))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E2", Title: "architectures", Table: table, Values: values}, nil
}
