package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/mobility"
	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
	"vcloud/internal/world"
)

// E7TaskHandover quantifies §III.A's argument: dropping unfinished tasks
// when vehicles leave wastes resources; handing partially executed work
// over preserves it. Arms: drop-and-resubmit, handover with route-aware
// dwell, handover with speed-only dwell (the estimation-signal ablation
// from DESIGN.md).
func E7TaskHandover(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 25, 50)
	tasks := pick(cfg, 12, 40)
	runFor := sim.Time(pick(cfg, 240, 600)) * time.Second

	table := metrics.NewTable(
		"E7 — Task handover vs drop-and-resubmit",
		"policy", "completion", "wasted kOps", "handovers", "retries", "p50 latency",
	)
	values := map[string]float64{}

	type arm struct {
		name     string
		handover bool
		dwell    mobility.DwellMode
	}
	arms := []arm{
		// The drop baseline is fully naive: no dwell estimation at
		// placement, no handover — the conventional-cloud habit §III.A
		// says wastes v-cloud resources.
		{"drop", false, 0},
		{"handover(route)", true, mobility.DwellRouteAware},
		{"handover(speed)", true, mobility.DwellSpeedOnly},
	}
	err := assemble(cfg, table, values, len(arms), func(i int, p *point) error {
		a := arms[i]
		w, err := world.Build(world.Spec{
			Seed: cfg.Seed, Road: world.Highway(3000, 25), Vehicles: vehicles,
			RSUs: []geo.Point{{X: 1500, Y: 15}},
			Cloud: &world.Cloud{Arch: vcloud.Infrastructure, Config: vcloud.DeployConfig{
				Handover:   a.handover,
				DwellMode:  a.dwell,
				Controller: vcloud.ControllerConfig{Depend: &vcloud.DependabilityPolicy{MaxRetries: 5}},
			}},
		})
		if err != nil {
			return err
		}
		s, stats, dep := w.Scenario, w.Stats, w.Cloud
		if err := w.Start(10 * time.Second); err != nil {
			return err
		}
		// Tasks of ~15 s compute against a ~24 s transit through RSU
		// range: finishable when placed early in a transit, lost when
		// placed late — exactly where handover pays.
		for i := 0; i < tasks; i++ {
			i := i
			s.Kernel.After(sim.Time(i)*2*time.Second, func() {
				_ = dep.SubmitAnywhere(vcloud.Task{Ops: 15_000, InputBytes: 500, OutputBytes: 500}, nil)
			})
		}
		if err := s.RunFor(runFor); err != nil {
			return err
		}
		completion := float64(stats.Completed.Value()) / float64(tasks)
		p.addRow(a.name,
			metrics.Pct(completion),
			fmt.Sprintf("%.1f", stats.WastedOps/1000),
			fmt.Sprintf("%d", stats.Handovers.Value()),
			fmt.Sprintf("%d", stats.Retries.Value()),
			metrics.Ms(stats.Latency.Percentile(50)))
		p.set(a.name+"/completion", completion)
		p.set(a.name+"/wasted", stats.WastedOps)
		p.set(a.name+"/handovers", float64(stats.Handovers.Value()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E7", Table: table, Values: values}, nil
}

// E8Replication sweeps the replication factor against member churn and
// reports file availability and repair traffic — §III.A's "how many
// copies of a shared file should be distributed".
func E8Replication(cfg Config) (*Result, error) {
	factors := []int{1, 2, 3}
	if !cfg.Quick {
		factors = []int{1, 2, 3, 4, 5}
	}
	members := pick(cfg, 20, 40)
	files := pick(cfg, 30, 100)
	churnRates := []float64{0.05, 0.15} // per-member offline prob per tick
	if !cfg.Quick {
		churnRates = []float64{0.02, 0.05, 0.1, 0.2}
	}
	ticks := pick(cfg, 120, 600)

	table := metrics.NewTable(
		"E8 — Replication factor vs availability under churn",
		"k", "churn", "model", "availability", "re-replicas", "bytes moved MB",
	)
	values := map[string]float64{}

	type sweep struct {
		k      int
		churn  float64
		retain bool
	}
	var sweeps []sweep
	for _, k := range factors {
		for _, churn := range churnRates {
			for _, retain := range []bool{false, true} {
				sweeps = append(sweeps, sweep{k, churn, retain})
			}
		}
	}
	err := assemble(cfg, table, values, len(sweeps), func(i int, p *point) error {
		k, churn, retain := sweeps[i].k, sweeps[i].churn, sweeps[i].retain
		kern := sim.NewKernel(cfg.Seed)
		rng := kern.NewStream("churn")
		online := make(map[vnet.Addr]bool, members)
		cands := make([]vnet.Addr, 0, members)
		for i := 0; i < members; i++ {
			a := vnet.Addr(i)
			online[a] = true
			cands = append(cands, a)
		}
		stats := &store.Stats{}
		// Write-all/read-one: the strict spelling of "k copies, serve from
		// any survivor".
		st, err := store.NewReplicated(store.Config{N: k, W: k, R: 1, RetainOffline: retain}, store.FuncView{
			MembersFn: func() []vnet.Addr { return cands },
			OnlineFn:  func(a vnet.Addr) bool { return online[a] },
		}, stats)
		if err != nil {
			return err
		}
		for f := 0; f < files; f++ {
			store.PutSized(st, "", store.Key(fmt.Sprintf("f%d", f)), 1<<20)
		}
		// Churn process: every second members flip offline/online;
		// reads and repairs run each tick.
		if _, err := kern.Every(time.Second, func() {
			for _, a := range cands {
				if online[a] {
					if rng.Float64() < churn {
						online[a] = false
					}
				} else if rng.Float64() < 0.3 { // come back online
					online[a] = true
				}
			}
			for f := 0; f < 5; f++ {
				store.Get(st, "", store.Key(fmt.Sprintf("f%d", rng.Intn(files))))
			}
			store.Fix(st)
		}); err != nil {
			return err
		}
		if err := kern.Run(sim.Time(ticks) * time.Second); err != nil {
			return err
		}
		avail := stats.Availability()
		model := "departed"
		key := fmt.Sprintf("k%d/churn%.2f", k, churn)
		if retain {
			model = "sleeping"
			key += "/retain"
		}
		p.addRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.2f", churn), model,
			metrics.Pct(avail),
			fmt.Sprintf("%d", stats.ReReplicas.Value()),
			fmt.Sprintf("%.0f", float64(stats.BytesMoved.Value())/(1<<20)))
		p.set(key+"/availability", avail)
		p.set(key+"/rereplicas", float64(stats.ReReplicas.Value()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E8", Table: table, Values: values}, nil
}
