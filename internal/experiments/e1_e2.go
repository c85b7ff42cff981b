package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/radio"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/world"
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

	// The remote arms' uplinks and datacenter CPUs; the vehicular arm
	// has neither.
	type arm struct {
		name string
		up   *radio.UplinkParams
		cpu  float64
	}
	arms := []arm{
		{"conventional", &radio.UplinkParams{BaseRTT: 60 * time.Millisecond, BandwidthMbps: 20, LossProb: 0.01, JitterFrac: 0.2}, 50_000},
		{"mobile", &radio.UplinkParams{BaseRTT: 90 * time.Millisecond, BandwidthMbps: 5, LossProb: 0.03, JitterFrac: 0.3}, 5_000},
		{"vehicular", nil, 0},
	}

	table := metrics.NewTable(
		"E1 — Conventional vs mobile vs vehicular cloud (Fig. 2)",
		"backend", "healthy compl.", "healthy p50", "outage compl.", "infra reliance",
	)
	values := map[string]float64{}

	err := assemble(cfg, table, values, len(arms), func(i int, p *point) error {
		a := arms[i]
		spec := world.Spec{Seed: cfg.Seed, Road: world.Highway(3000, 25), Vehicles: vehicles}
		if a.up == nil {
			spec.Cloud = &world.Cloud{Arch: vcloud.Dynamic}
		}
		w, err := world.Build(spec)
		if err != nil {
			return err
		}
		s, stats, dep := w.Scenario, w.Stats, w.Cloud
		var backend vcloud.Backend
		var uplink *radio.Uplink
		if a.up != nil {
			if uplink, err = radio.NewUplink(s.Kernel, *a.up); err != nil {
				return err
			}
			w.Injector.AttachUplink(uplink)
			if backend, err = vcloud.NewRemoteCloud(a.name, s.Kernel, uplink.NewSender(radio.BWEConfig{}), a.cpu, stats); err != nil {
				return err
			}
		}
		if err := w.Start(10 * time.Second); err != nil {
			return err
		}

		// submit spreads n tasks over the first half of the coming phase,
		// one every phase/(2n), as kernel events: handed over at one
		// instant, a task's latency would mostly be its place in the
		// uplink queue or the cloud's backlog, not the backend's.
		submit := func(n int) {
			gap := phase / sim.Time(2*n)
			for i := 0; i < n; i++ {
				s.Kernel.After(sim.Time(i)*gap, func() {
					task := vcloud.Task{Ops: 2000, InputBytes: 4000, OutputBytes: 2000}
					if backend != nil {
						_ = backend.Submit(task, nil)
					} else {
						_ = dep.SubmitAnywhere(task, nil)
					}
				})
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
			w.Injector.Apply(faults.Event{Kind: faults.UplinkDown})
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
	return &Result{ID: "E1", Table: table, Values: values}, nil
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
		spec := world.Spec{Seed: cfg.Seed, Road: world.Highway(3000, 25), Vehicles: pick(cfg, 25, 60),
			Cloud: &world.Cloud{Arch: a.arch}}
		switch a.arch {
		case vcloud.Stationary:
			spec.Road, spec.Vehicles, spec.RSUs = world.ParkingLot(150), pick(cfg, 15, 40), []geo.Point{world.Gate}
		case vcloud.Infrastructure:
			spec.RSUs = []geo.Point{{X: 500, Y: 15}, {X: 1500, Y: 15}, {X: 2500, Y: 15}}
		case vcloud.Dynamic: // the bare highway
		}
		w, err := world.Build(spec)
		if err != nil {
			return err
		}
		s, stats, dep := w.Scenario, w.Stats, w.Cloud
		if err := w.Start(10 * time.Second); err != nil {
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
	return &Result{ID: "E2", Table: table, Values: values}, nil
}
