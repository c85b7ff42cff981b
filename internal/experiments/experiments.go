// Package experiments contains the runnable reproductions of every
// figure and load-bearing claim of the paper, indexed E1–E17 (see
// DESIGN.md for the mapping). Each experiment builds its scenario from
// the substrate packages, runs it on the deterministic kernel, and
// returns both a printable table (the paper-style rows) and a map of
// named values that the TestE*Shape tests assert the *shape* of.
//
// The paper is a survey with no quantitative evaluation of its own; the
// expected shapes come from its qualitative figures (Fig. 2, Fig. 4,
// Fig. 5) and the explicit arguments of §III–§V. EXPERIMENTS.md records
// claim-vs-measured for every run.
package experiments

import (
	"fmt"

	"vcloud/internal/fanout"
	"vcloud/internal/metrics"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Quick shrinks populations and durations for tests; the full-size
	// runs back EXPERIMENTS.md.
	Quick bool
	// Parallel bounds how many of an experiment's sweep points run
	// concurrently; zero or one means serial. Every sweep point builds
	// its own kernel and scenario, and the table is assembled in sweep
	// order after all points finish, so the rendered output is identical
	// at any parallelism.
	Parallel int
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Table  *metrics.Table
	Values map[string]float64
}

// point collects one sweep point's finished output: its table rows and
// its contribution to Values. Each point is written by exactly one worker
// goroutine and read only after all workers join.
type point struct {
	rows   [][]string
	values map[string]float64
}

// addRow buffers one table row.
func (p *point) addRow(cells ...string) {
	p.rows = append(p.rows, cells)
}

// set buffers one named value.
func (p *point) set(key string, v float64) {
	if p.values == nil {
		p.values = make(map[string]float64)
	}
	p.values[key] = v
}

// assemble is the deterministic fan-out/fan-in at the heart of every
// experiment: run n independent sweep points (in parallel when configured),
// then fold their buffered rows and values into the table and value map
// in sweep order. Because each point owns its kernel and the fold is
// serial and index-ordered, the assembled table is byte-identical at any
// parallelism.
func assemble(cfg Config, table *metrics.Table, values map[string]float64, n int, run func(i int, p *point) error) error {
	pts := make([]point, n)
	if err := fanout.Each(cfg.Parallel, n, func(i int) error { return run(i, &pts[i]) }); err != nil {
		return err
	}
	for i := range pts {
		for _, row := range pts[i].rows {
			table.AddRow(row...)
		}
		for k, v := range pts[i].values {
			values[k] = v
		}
	}
	return nil
}

// String renders the result table.
func (r *Result) String() string {
	return fmt.Sprintf("%s\n", r.Table.String())
}

// Runner is a named experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Result, error)
}

// All lists every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", "cloud comparison (Fig. 2)", E1CloudComparison},
		{"E2", "v-cloud architectures (Fig. 4)", E2Architectures},
		{"E3", "cluster stability", E3ClusterStability},
		{"E4", "routing protocols", E4Routing},
		{"E5", "authentication protocols (Fig. 5)", E5Authentication},
		{"E6", "access-control latency", E6AccessControl},
		{"E7", "task handover vs drop", E7TaskHandover},
		{"E8", "replication vs availability", E8Replication},
		{"E9", "trust validators vs attackers", E9Trust},
		{"E10", "attack/defense drill", E10Attacks},
		{"E11", "controller failover under crash", E11Failover},
		{"E12", "dependable execution under Byzantine workers", E12Dependability},
		{"E13", "split-brain fencing vs failover-only", E13SplitBrain},
		{"E14", "storage durability under churn", E14Storage},
		{"E15", "DAG execution under churn", E15DAGExecution},
		{"E16", "congestion-aware offload placement", E16CongestionPlacement},
		{"E17", "geo-sharded parallel kernel determinism", E17ShardedKernel},
	}
}

// pick returns quick when cfg.Quick, else full.
func pick(cfg Config, quick, full int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

func pickF(cfg Config, quick, full float64) float64 {
	if cfg.Quick {
		return quick
	}
	return full
}
