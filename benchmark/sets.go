package main

import (
	"fmt"
	"os"
)

// runSets is the repeatability check: the whole benchmark n times on one
// commit and one seed. Set medians of every end-to-end metric must agree
// within the metric's own bound, and every exact counter and
// virtual-time metric must agree exactly; otherwise the benchmark cannot
// tell a regression from its own noise on this host. It returns the
// process exit code.
func runSets(n int, seed int64, seconds int) int {
	fmt.Printf("# %s seed=%d sets=%d\n", hostInfo(), seed, n)
	sets := make([]map[string]*runResult, n)
	code := 0
	for i := range sets {
		sets[i] = make(map[string]*runResult)
		for _, w := range workloads {
			r, err := runWorkload(w.Name, seed, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 2
			}
			for _, b := range r.Breaches {
				fmt.Printf("BREACH set %d %s: %s\n", i+1, w.Name, b)
				code = 1
			}
			sets[i][w.Name] = r
		}
	}
	fmt.Printf("%-18s %-20s %12s %10s %8s  %s\n", "workload", "metric", "median", "worst/best", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := make([]float64, n)
			for i := range sets {
				vals[i] = sets[i][w.Name].Metrics[m.Name]
			}
			// The worst set against the best set, as a change would be
			// judged against its parent.
			best, worst := extremes(vals, m.Better)
			// Sets of one commit further apart than the bound: on this
			// host a change of that size cannot be told from noise, and
			// the metric is reported as unresolved, never as passing.
			verdict := "ok"
			if regressed(best, worst, m) {
				verdict, code = "UNRESOLVED", 1
			}
			fmt.Printf("%-18s %-20s %12.6g %8.4f %8.4f  %s\n", w.Name, m.Name, median(vals), worseBy(best, worst, m.Better), m.Bound, verdict)
		}
		first := sets[0][w.Name]
		for i := 1; i < n; i++ {
			other := sets[i][w.Name]
			if other.Digest != first.Digest {
				fmt.Printf("%-18s model digest differs between set 1 and set %d\n", w.Name, i+1)
				code = 1
			}
			for _, k := range sameExact(first.Exact, other.Exact) {
				fmt.Printf("%-18s exact counter %s differs between set 1 and set %d (%v, %v)\n", w.Name, k, i+1, first.Exact[k], other.Exact[k])
				code = 1
			}
			for _, k := range virtualMetrics {
				if first.Metrics[k] != other.Metrics[k] {
					fmt.Printf("%-18s virtual-time metric %s differs between set 1 and set %d\n", w.Name, k, i+1)
					code = 1
				}
			}
		}
	}
	return code
}
