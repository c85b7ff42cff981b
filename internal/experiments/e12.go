package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vcloud/internal/attack"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/mobility"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/trust"
	"vcloud/internal/vcloud"
)

// E12Dependability measures the §V dependable-execution claim: result
// correctness under Byzantine workers that return wrong values. Four
// policies face rising Byzantine fractions on the same seeded
// stationary cloud and workload:
//
//   - baseline: single copy, no retries — whatever one worker returns
//     is the answer;
//   - retry: single copy with backoff retries — helps against crashes,
//     not lies (a retry may land on another liar, and a lie is
//     indistinguishable from a result without redundancy);
//   - redundant: K=3 disjoint replicas with majority voting — lies are
//     outvoted while honest workers form a quorum;
//   - trustgated: redundancy plus the Fig. 3 trust loop — losing voters
//     accrue negative evidence, and workers below the trust threshold
//     are excluded from placement, so the cloud learns who lies and
//     stops asking them.
//
// Reported per arm×fraction: correct-result completion (completions
// whose value matches the honest computation, over submissions), wrong
// results accepted, and failures.
func E12Dependability(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 12, 20)
	tasks := pick(cfg, 30, 50)
	fractions := []float64{0.2, 0.6}
	if !cfg.Quick {
		fractions = []float64{0.2, 0.4, 0.6}
	}

	table := metrics.NewTable(
		"E12 — Dependable execution under Byzantine workers (§V)",
		"policy", "byz", "correct", "wrong", "failed", "replicas", "wrong-votes",
	)
	values := map[string]float64{}

	type arm struct {
		name    string
		policy  *vcloud.DependabilityPolicy
		trusted bool
	}
	arms := []arm{
		{"baseline", nil, false},
		{"retry", &vcloud.DependabilityPolicy{Replicas: 1, MaxRetries: 3}, false},
		{"redundant", &vcloud.DependabilityPolicy{Replicas: 3, MaxRetries: 3}, false},
		{"trustgated", &vcloud.DependabilityPolicy{
			Replicas: 3, MaxRetries: 3, TrustThreshold: 0.45, TrustWeighted: true,
		}, true},
	}

	type sweep struct {
		a    arm
		frac float64
	}
	var sweeps []sweep
	for _, a := range arms {
		for _, frac := range fractions {
			sweeps = append(sweeps, sweep{a, frac})
		}
	}
	err := assemble(cfg, table, values, len(sweeps), func(si int, p *point) error {
		a, frac := sweeps[si].a, sweeps[si].frac
		net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: 150, AisleGapM: 40})
		if err != nil {
			return err
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: vehicles, Parked: true})
		if err != nil {
			return err
		}
		if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
			return err
		}
		stats := &vcloud.Stats{}
		ctlCfg := vcloud.ControllerConfig{Depend: a.policy}
		if a.trusted {
			ws, err := trust.NewWorkerSet(s.Kernel.Now, 0)
			if err != nil {
				return err
			}
			ctlCfg.Workers = ws
		}
		dep, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{Controller: ctlCfg}, stats)
		if err != nil {
			return err
		}

		// The same lowest-ID fraction of members lies on every result,
		// deterministically across arms.
		ids := make([]mobility.VehicleID, 0, len(dep.Members))
		for id := range dep.Members {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		nByz := int(math.Round(frac * float64(len(ids))))
		for _, id := range ids[:nByz] {
			if _, err := attack.Byzantify(dep.Members[id], 1, nil); err != nil {
				return err
			}
		}

		if err := s.Start(); err != nil {
			return err
		}
		if err := s.RunFor(10 * time.Second); err != nil {
			return err
		}

		// Submit faster than a member drains (200 ms spacing vs 1.5 s
		// of compute) so backlog spreads placement across the whole
		// fleet; with idle members the earliest-finish scheduler would
		// deterministically reuse one member and measure that member's
		// honesty rather than the Byzantine fraction.
		correct, wrong, failed := 0, 0, 0
		tmpl := vcloud.Task{Ops: 1500, InputBytes: 1000, OutputBytes: 500}
		for i := 0; i < tasks; i++ {
			s.Kernel.After(sim.Time(i)*200*time.Millisecond, func() {
				err := dep.SubmitAnywhere(tmpl, func(r vcloud.TaskResult) {
					if !r.OK {
						failed++
						return
					}
					ref := tmpl
					ref.ID = r.ID
					if r.Value == vcloud.TaskValue(ref) {
						correct++
					} else {
						wrong++
					}
				})
				if err != nil {
					failed++
				}
			})
		}
		horizon := sim.Time(tasks)*200*time.Millisecond + 90*time.Second
		if err := s.RunFor(horizon); err != nil {
			return err
		}

		key := fmt.Sprintf("%s/byz%.1f", a.name, frac)
		correctRate := float64(correct) / float64(tasks)
		p.addRow(a.name, metrics.Pct(frac),
			metrics.Pct(correctRate),
			fmt.Sprintf("%d", wrong),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%d", stats.ReplicaDispatches.Value()),
			fmt.Sprintf("%d", stats.WrongVotes.Value()))
		p.set(key+"/correct", correctRate)
		p.set(key+"/wrong", float64(wrong))
		p.set(key+"/failed", float64(failed))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E12", Title: "dependable execution", Table: table, Values: values}, nil
}
