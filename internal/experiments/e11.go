package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/world"
)

// E11Failover measures the dependability claim of §V.A: a vehicular
// cloud whose controller state is replicated to a standby survives a
// controller crash, while the no-failover baseline loses its in-flight
// task table and every later submission. Both arms run the identical
// seeded workload on a stationary cloud (parking lot, gate-RSU
// coordinator) and the identical fault plan — a scripted
// kill-controller event injected through internal/faults — differing
// only in whether checkpoint replication is on. Reported: completion
// rate, submissions refused while headless, failovers/resumed counts,
// and recovery latency (first completion after the crash).
func E11Failover(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 12, 25)
	tasks := pick(cfg, 24, 40)
	crashAt := 22 * time.Second
	horizon := sim.Time(pick(cfg, 90, 180)) * time.Second

	table := metrics.NewTable(
		"E11 — Controller crash: failover vs no-failover (§V.A dependability)",
		"policy", "completion", "refused", "failovers", "resumed", "recovery",
	)
	values := map[string]float64{}

	type arm struct {
		name     string
		failover bool
	}
	arms := []arm{{"baseline", false}, {"failover", true}}
	err := assemble(cfg, table, values, len(arms), func(ai int, p *point) error {
		a := arms[ai]
		// The same scripted controller crash for both arms.
		w, err := world.Build(world.Spec{
			Seed: cfg.Seed, Road: world.ParkingLot(150), Vehicles: vehicles,
			RSUs:   []geo.Point{world.Gate},
			Cloud:  &world.Cloud{Arch: vcloud.Stationary, Config: vcloud.DeployConfig{Failover: a.failover}},
			Faults: faults.Plan{{At: crashAt, Kind: faults.KillController}},
		})
		if err != nil {
			return err
		}
		s, stats, dep := w.Scenario, w.Stats, w.Cloud

		// Sample completions after the crash to time recovery: the first
		// completion past the crash instant marks the cloud working again.
		var atCrash uint64
		recovery := -1.0
		s.Kernel.At(crashAt, func() { atCrash = stats.Completed.Value() })
		probe := func() {
			if recovery < 0 && stats.Completed.Value() > atCrash {
				recovery = (s.Kernel.Now() - crashAt).Seconds()
			}
		}
		if _, err := s.Kernel.Every(500*time.Millisecond, func() {
			if s.Kernel.Now() > crashAt {
				probe()
			}
		}); err != nil {
			return err
		}

		if err := w.Start(10 * time.Second); err != nil {
			return err
		}

		// Steady workload across the crash: one task every 2 s.
		refused := 0
		for i := 0; i < tasks; i++ {
			s.Kernel.After(sim.Time(i)*2*time.Second, func() {
				if err := dep.SubmitAnywhere(vcloud.Task{Ops: 2000, InputBytes: 2000, OutputBytes: 1000}, nil); err != nil {
					refused++
				}
			})
		}
		if err := s.Run(horizon); err != nil {
			return err
		}

		completion := float64(stats.Completed.Value()) / float64(tasks)
		recoveryCell := "never"
		if recovery >= 0 {
			recoveryCell = fmt.Sprintf("%.1fs", recovery)
		}
		p.addRow(a.name,
			metrics.Pct(completion),
			fmt.Sprintf("%d", refused),
			fmt.Sprintf("%d", stats.Failovers.Value()),
			fmt.Sprintf("%d", stats.Resumed.Value()),
			recoveryCell)
		p.set(a.name+"/completion", completion)
		p.set(a.name+"/refused", float64(refused))
		p.set(a.name+"/failovers", float64(stats.Failovers.Value()))
		p.set(a.name+"/resumed", float64(stats.Resumed.Value()))
		if recovery < 0 {
			recovery = horizon.Seconds()
		}
		p.set(a.name+"/recovery_s", recovery)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E11", Table: table, Values: values}, nil
}
