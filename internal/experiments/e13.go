package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vcloud"
	"vcloud/internal/world"
)

// E13SplitBrain measures the split-brain claim of §V.A: when a network
// partition cuts the controller (plus a few of its workers) off from
// the rest of the cloud, the standby promotes and two controllers run
// the same task table. With PR 1 failover alone, both sides apply
// outcomes for the same tasks — duplicated work and duplicated effects
// that persist even after the partition heals, because neither
// controller ever stands down. With epoch fencing (this PR), the
// isolated controller's outcomes park unacknowledged, the promotee's
// epoch supersedes it on heal, and the merge reconciliation dedupes
// every outcome through the (task, epoch) ledger — exactly-once.
//
// Both arms run the identical seeded workload and the identical
// controller-isolation schedule, differing only in the Fencing flag.
// Reported: duplicate applied outcomes, split-brain exposure (time with
// two live controllers), duplicate-dispatch waste (ops spent on
// re-applied outcomes), and reconciliation latency from partition heal
// to the survivor's merge (fenced arm; the baseline never reconciles).
func E13SplitBrain(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 14, 25)
	tasks := pick(cfg, 30, 60)
	taskOps := 2000.0
	isolateAt := 20 * time.Second
	isolateFor := sim.Time(pick(cfg, 15, 20)) * time.Second
	horizon := sim.Time(pick(cfg, 90, 150)) * time.Second

	table := metrics.NewTable(
		"E13 — Split-brain: epoch fencing vs failover-only (§V.A dependability)",
		"policy", "completion", "duplicates", "waste", "exposure", "reconcile",
	)
	values := map[string]float64{}

	type arm struct {
		name    string
		fencing bool
	}
	arms := []arm{{"baseline", false}, {"fenced", true}}
	err := assemble(cfg, table, values, len(arms), func(ai int, p *point) error {
		a := arms[ai]

		// Count every applied outcome by task ID across all controllers —
		// the probe both arms share. Fenced IDs are epoch-prefixed and
		// ledger-deduplicated, so a second application of any ID is the
		// duplicated-effect defect this experiment quantifies.
		applies := map[uint64]int{}
		duplicates := 0
		w, err := world.Build(world.Spec{
			Seed: cfg.Seed, Road: world.ParkingLot(150), Vehicles: vehicles,
			RSUs: []geo.Point{world.Gate},
			Cloud: &world.Cloud{Arch: vcloud.Stationary, Config: vcloud.DeployConfig{
				Failover: true,
				Controller: vcloud.ControllerConfig{
					Fencing: a.fencing,
					Trace: func(ev trace.Event) {
						if ev.Kind == trace.Apply {
							if applies[ev.Task]++; applies[ev.Task] > 1 {
								duplicates++
							}
						}
					},
				},
			}},
		})
		if err != nil {
			return err
		}
		s, stats, dep, inj := w.Scenario, w.Stats, w.Cloud, w.Injector

		// The same scripted split-brain for both arms: at isolateAt, cut
		// the active controller plus its three lowest-addressed workers
		// (never the standby) off from the rest; heal after isolateFor.
		healAt := sim.Time(-1)
		s.Kernel.At(isolateAt, func() {
			ctls := dep.ActiveControllers()
			if len(ctls) == 0 {
				return
			}
			c := ctls[0]
			keep := make([]int, 0, 3)
			for _, m := range c.Members() {
				if m != c.StandbyAddr() && len(keep) < 3 {
					keep = append(keep, int(m))
				}
			}
			// The injector's heal runs first: it was scheduled first.
			inj.Apply(faults.Event{Kind: faults.Isolate, Target: int(c.Addr()), Keep: keep, Dur: isolateFor})
			s.Kernel.After(isolateFor, func() { healAt = s.Kernel.Now() })
		})

		// Probes: split-brain exposure is the sampled time with two or
		// more live controllers; reconciliation latency is heal to the
		// survivor's first merge.
		exposure := 0.0
		reconcile := -1.0
		mergesSeen := uint64(0)
		const probeEvery = 250 * time.Millisecond
		if _, err := s.Kernel.Every(probeEvery, func() {
			if len(dep.ActiveControllers()) > 1 {
				exposure += probeEvery.Seconds()
			}
			if m := stats.Merges.Value(); reconcile < 0 && healAt >= 0 && m > mergesSeen {
				reconcile = (s.Kernel.Now() - healAt).Seconds()
			}
		}); err != nil {
			return err
		}

		if err := w.Start(10 * time.Second); err != nil {
			return err
		}

		// Steady workload across the split: one task per second.
		refused := 0
		for i := 0; i < tasks; i++ {
			s.Kernel.After(sim.Time(i)*time.Second, func() {
				if err := dep.SubmitAnywhere(vcloud.Task{Ops: taskOps, InputBytes: 2000, OutputBytes: 1000}, nil); err != nil {
					refused++
				}
			})
		}
		if err := s.Run(horizon); err != nil {
			return err
		}

		applied := 0
		for _, n := range applies {
			if n > 0 {
				applied++
			}
		}
		completion := float64(applied) / float64(tasks)
		if completion > 1 {
			completion = 1
		}
		waste := float64(duplicates) * taskOps
		reconcileCell := "never"
		if reconcile >= 0 {
			reconcileCell = fmt.Sprintf("%.1fs", reconcile)
		}
		p.addRow(a.name,
			metrics.Pct(completion),
			fmt.Sprintf("%d", duplicates),
			fmt.Sprintf("%.0f ops", waste),
			fmt.Sprintf("%.1fs", exposure),
			reconcileCell)
		p.set(a.name+"/completion", completion)
		p.set(a.name+"/duplicates", float64(duplicates))
		p.set(a.name+"/waste_ops", waste)
		p.set(a.name+"/exposure_s", exposure)
		p.set(a.name+"/refused", float64(refused))
		p.set(a.name+"/abdications", float64(stats.Abdications.Value()))
		p.set(a.name+"/merges", float64(stats.Merges.Value()))
		p.set(a.name+"/deduped", float64(stats.Deduped.Value()))
		if reconcile < 0 {
			reconcile = horizon.Seconds()
		}
		p.set(a.name+"/reconcile_s", reconcile)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E13", Table: table, Values: values}, nil
}
