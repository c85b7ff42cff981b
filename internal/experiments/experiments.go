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
	"sync"
	"sync/atomic"

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
	Title  string
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

// forEachPar runs fn(0..n-1), spreading the calls over up to cfg.Parallel
// worker goroutines. With Parallel <= 1 it degenerates to a plain serial
// loop. The first error stops new work and is returned after all workers
// join; indices already started still run to completion.
func forEachPar(cfg Config, n int, fn func(i int) error) error {
	workers := cfg.Parallel
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		//vcloudlint:allow nogoroutine work-stealing counter for the fan-out pool; no kernel code runs on this goroutine
		next atomic.Int64
		//vcloudlint:allow nogoroutine pool join barrier; results are folded serially after Wait
		wg sync.WaitGroup
		//vcloudlint:allow nogoroutine guards firstErr across pool workers, never kernel state
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//vcloudlint:allow nogoroutine bounded worker pool running independent kernels; fan-in is serial
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// assemble is the deterministic fan-out/fan-in at the heart of every
// experiment: run n independent sweep points (in parallel when configured),
// then fold their buffered rows and values into the table and value map
// in sweep order. Because each point owns its kernel and the fold is
// serial and index-ordered, the assembled table is byte-identical at any
// parallelism.
func assemble(cfg Config, table *metrics.Table, values map[string]float64, n int, run func(i int, p *point) error) error {
	pts := make([]point, n)
	if err := forEachPar(cfg, n, func(i int) error { return run(i, &pts[i]) }); err != nil {
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
