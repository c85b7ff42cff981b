package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/world"
)

// E15DAGExecution measures the §V dependable-execution claim at the job
// level: multi-stage dependent workloads on a vehicular cloud survive
// member churn only if recovery is stage-granular and redundancy is
// spent where it matters. Four recovery strategies run the identical
// seeded DAG stream over the identical churn schedule (a member's
// process dies every churn period — its running stages die with it;
// decided stage values live on the controller, which hands them to
// each successor's dispatch — and a wiped replacement rejoins a few
// seconds later):
//
//   - naive restart: any stage failure restarts the whole job from
//     scratch, up to 3 times — the classic cloud answer, which throws
//     away every completed ancestor stage;
//   - crit-path ×3: stage-granular retry plus a replica budget of 8
//     extra copies, spent only on critical-path stages — enough to
//     triplicate all four stages whose loss stalls the whole DAG, so a
//     worker death there is masked by the surviving quorum instead of
//     costing a retry round;
//   - replicate-all: the same budget arithmetic but spread over every
//     stage (budget = 2 × stage count), the "replicate everything"
//     comparison — it pays compute for copies of stages that were never
//     critical, and on a fleet this size the extra placements starve
//     each other;
//   - crit+RSU: crit-path ×3 plus an ETSI-MEC RSU edge server joined
//     as a first-class placement target — fixed infrastructure the
//     churn never kills, with more compute than any vehicle.
//
// Reported per arm×churn: jobs completed over submitted, wasted-work
// fraction (ops dispatched that produced no applied outcome — restarts,
// killed workers, abandoned replicas), and median completed-job
// makespan. The claims under test: at storm-level churn (two members
// every 2 s) the crit-path arm completes at least twice the naive arm's
// rate; the replicate-all arm buys no more completion than crit-path
// but strictly more wasted work; and the RSU tier pushes completion
// higher still while cutting makespan.
func E15DAGExecution(cfg Config) (*Result, error) {
	const vehicles = 16
	horizon := sim.Time(pick(cfg, 80, 160)) * time.Second
	const (
		jobEvery    = 6 * time.Second
		reviveAfter = 6 * time.Second
		submitUntil = 0.55 // stop submitting at this fraction of the horizon
		// jobDeadline is ~1.5x the job's serial compute time: room for
		// stage-granular recovery, no room to restart the whole DAG.
		jobDeadline = 14 * time.Second
	)

	// The job: sense fans out to one heavy and two light feature stages,
	// which join at fuse, feeding report. Critical path
	// sense-heavy-fuse-report (7000 of 9400 serial ops, ~7 s on a
	// 1000 ops/s vehicle); feat-a/feat-b are off-path, so a crit-path
	// budget of 8 triplicates every critical stage while leaving the
	// side branches unreplicated.
	baseJob := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 1000, InputBytes: 600, OutputBytes: 400},      // sense
			{Ops: 3000, OutputBytes: 400, Deps: []int{0}},       // heavy
			{Ops: 1200, OutputBytes: 400, Deps: []int{0}},       // feat-a
			{Ops: 1200, OutputBytes: 400, Deps: []int{0}},       // feat-b
			{Ops: 1500, OutputBytes: 300, Deps: []int{1, 2, 3}}, // fuse
			{Ops: 1500, OutputBytes: 200, Deps: []int{4}},       // report
		},
		StageRetries: 3,
	}

	type arm struct {
		name string
		spec func() vcloud.JobSpec
		edge bool
	}
	arms := []arm{
		{"naive restart", func() vcloud.JobSpec {
			j := baseJob
			j.WholeJobRestart = true
			return j
		}, false},
		{"crit-path", func() vcloud.JobSpec {
			j := baseJob
			j.ReplicaBudget = 8 // 3 copies of all four critical-path stages
			return j
		}, false},
		{"replicate-all", func() vcloud.JobSpec {
			j := baseJob
			j.ReplicaBudget = 2 * len(baseJob.Stages) // 3 copies of everything
			j.ReplicateAll = true
			return j
		}, false},
		{"crit+RSU", func() vcloud.JobSpec {
			j := baseJob
			j.ReplicaBudget = 8
			return j
		}, true},
	}
	// Churn levels: period between kill fronts and how many members die
	// per front. The storm level loses two members every 2 s — faster
	// than the 6 s revive, so the fleet runs persistently short-handed.
	churns := []struct {
		label  string
		period sim.Time
		burst  int
	}{
		{"none", 0, 0},
		{"8s", 8 * time.Second, 1},
		{"2s x2", 2 * time.Second, 2},
	}

	table := metrics.NewTable(
		"E15 — Reliability-aware DAG execution vs member churn (§V job dependability)",
		"strategy", "churn", "submitted", "completed", "rate", "wasted", "p50 makespan",
	)
	values := map[string]float64{}

	n := len(arms) * len(churns)
	err := assemble(cfg, table, values, n, func(i int, p *point) error {
		a := arms[i/len(churns)]
		churn := churns[i%len(churns)]

		spec := world.Spec{
			Seed: cfg.Seed, Road: world.ParkingLot(150), Vehicles: vehicles,
			RSUs: []geo.Point{world.Gate}, Cloud: &world.Cloud{Arch: vcloud.Stationary},
		}
		if a.edge {
			spec.RSUs = append(spec.RSUs, geo.Point{X: 60, Y: 0})
		}
		w, err := world.Build(spec)
		if err != nil {
			return err
		}
		s, stats, dep := w.Scenario, w.Stats, w.Cloud
		defer w.Injector.Close()
		if a.edge {
			if _, err := vcloud.NewEdgeServer(s.RSUs[1], vcloud.EdgeConfig{CPU: 3000, Storage: 2048}, stats); err != nil {
				return err
			}
		}
		if err := s.Start(); err != nil {
			return err
		}

		// Job stream: one DAG every jobEvery until submitUntil of the
		// horizon, so the tail of the run drains in-flight jobs instead of
		// counting unfinishable late submissions against every arm.
		submitted, completed := 0, 0
		makespan := &metrics.Histogram{}
		jobT, err := s.Kernel.Every(jobEvery, func() {
			if float64(s.Kernel.Now()) > submitUntil*float64(horizon) {
				return
			}
			spec := a.spec()
			spec.Deadline = s.Kernel.Now() + jobDeadline
			if err := dep.SubmitJobAnywhere(spec, func(r vcloud.JobResult) {
				if r.OK {
					completed++
					makespan.Observe(r.Latency.Seconds())
				}
			}); err == nil {
				submitted++
			}
		})
		if err != nil {
			return err
		}
		defer jobT.Stop()

		// Churn clock: every period a burst of member kills (their running
		// stages die too), wiped replacements rejoining
		// reviveAfter later; the schedule replays via the named stream.
		if churn.period > 0 {
			rng := s.Kernel.NewStream("e15.churn")
			kill, err := s.Kernel.Every(churn.period, func() {
				for k := 0; k < churn.burst; k++ {
					if _, ok := w.KillMember(rng, reviveAfter); !ok {
						return
					}
				}
			})
			if err != nil {
				return err
			}
			defer kill.Stop()
		}

		if err := s.RunFor(horizon); err != nil {
			return err
		}

		rate := 0.0
		if submitted > 0 {
			rate = float64(completed) / float64(submitted)
		}
		// Wasted work: every dispatched op beyond the serial compute of the
		// jobs that actually completed — restarted attempts, work dying
		// with killed members, redundant replicas, and everything spent on
		// jobs that ultimately failed.
		var serialOps float64
		for _, st := range baseJob.Stages {
			serialOps += st.Ops
		}
		wasted := 0.0
		if useful := float64(completed) * serialOps; stats.OpsDispatched > useful {
			wasted = (stats.OpsDispatched - useful) / stats.OpsDispatched
		}
		p50 := 0.0
		if makespan.Count() > 0 {
			p50 = makespan.Percentile(50)
		}
		p.addRow(a.name, churn.label,
			fmt.Sprintf("%d", submitted),
			fmt.Sprintf("%d", completed),
			metrics.Pct(rate),
			metrics.Pct(wasted),
			fmt.Sprintf("%.1fs", p50))
		prefix := fmt.Sprintf("%s/churn=%s/", a.name, churn.label)
		p.set(prefix+"rate", rate)
		p.set(prefix+"wasted", wasted)
		p.set(prefix+"p50s", p50)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E15", Table: table, Values: values}, nil
}
