package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// printRun prints one run's metrics by name and unit.
func printRun(w io.Writer, r *runResult) {
	mode := "untraced"
	specs := endToEnd
	if r.Traced {
		mode, specs = "traced", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d %s reps=%d attempted=%d digest=%016x\n", r.Workload, r.Seed, mode, r.Reps, r.Attempt, r.Digest)
	fmt.Fprintf(w, "# open loop in virtual time: submissions are kernel events at fixed instants, so the generator cannot run late (lateness 0)\n")
	for _, m := range specs {
		v := r.Metrics[m.Name]
		if r.Traced && v == 0 {
			continue // the layer did no work on this workload
		}
		note := ""
		if derivedLayer[m.Name] {
			note = " (derived by the benchmark, not read from the layer)"
		}
		fmt.Fprintf(w, "%-36s %14.6g %s%s\n", m.Name, v, m.Unit, note)
	}
	if !r.Traced {
		fmt.Fprintf(w, "%-36s %14.6g %s (wall_s and setup_s are net of the time the hypervisor held a processor back)\n", "wall_s with stolen time", r.WallRaw, "s")
		fmt.Fprintf(w, "%-36s %14.6g %s (tail reported at p%g)\n", "vt samples", r.Exact["bench.vt_samples"], "count", r.Exact["bench.vt_tail_pct"])
	}
	for _, b := range r.Breaches {
		fmt.Fprintf(w, "BREACH %s\n", b)
	}
}

// commit names the commit the numbers belong to: asked of git, because
// `go run` stamps no VCS metadata into the binary; the build info serves a
// binary built with `go build` and run elsewhere.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// hostInfo describes where the numbers were taken.
func hostInfo() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// runAll runs every workload untraced and then traced, and prints the
// end-to-end table and each workload's layer ranking. It returns the
// process exit code: non-zero when any correctness check failed.
func runAll(seed int64, seconds int) int {
	fmt.Printf("# %s seed=%d\n", hostInfo(), seed)
	code := 0
	untraced := make(map[string]*runResult)
	traced := make(map[string]*runResult)
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			r, err := runWorkload(w.Name, seed, seconds, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 2
			}
			if !r.correct() {
				code = 1
			}
			printRun(os.Stdout, r)
			if tr {
				traced[w.Name] = r
			} else {
				untraced[w.Name] = r
			}
		}
	}
	fmt.Println()
	printEndToEnd(os.Stdout, untraced)
	for _, w := range workloads {
		printRanking(os.Stdout, traced[w.Name])
	}
	return code
}

// printEndToEnd prints every end-to-end metric for every workload.
func printEndToEnd(w io.Writer, runs map[string]*runResult) {
	fmt.Fprintf(w, "%-20s %-6s", "end-to-end", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %17s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-20s %-6s", m.Name, m.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %17.6g", runs[wl.Name].Metrics[m.Name])
		}
		fmt.Fprintln(w)
	}
}

// layerSeconds estimates the host seconds of the timed interval each
// layer accounts for in a traced run: span time where the benchmark
// calls the layer itself, probe estimates where it cannot.
func layerSeconds(r *runResult) map[string]float64 {
	m := r.Metrics
	self := m["sim.run_self_s"]
	return map[string]float64{
		"sim":       m["sim.events"] * m["sim.probe_sched_fire_ns"] / 1e9,
		"sim_shard": m["sim_shard.busy_s"],
		"geo":       m["geo.est_share"] * self,
		"mobility":  m["mobility.est_share"] * self,
		"radio":     m["radio.est_share"] * self,
		"vcloud":    m["vcloud.submit_s"],
		"store":     m["store.put_s"] + m["store.get_s"] + m["store.repair_s"],
		"crypto":    m["cryptoprim.est_share"] * self,
		"access":    (m["access.open_ns_p50"] + m["access.evaluate_ns_p50"]) * m["auth.handshakes_ok"] / 1e9,
	}
}

// printRanking lists the layers of one traced run by estimated time.
func printRanking(w io.Writer, r *runResult) {
	secs := layerSeconds(r)
	names := make([]string, 0, len(secs))
	for name := range secs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if secs[names[i]] != secs[names[j]] {
			return secs[names[i]] > secs[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "\n%s: layers by estimated host time (span time or isolated-probe estimate)\n", r.Workload)
	for _, name := range names {
		if secs[name] > 0 {
			fmt.Fprintf(w, "  %-10s %9.4f s\n", name, secs[name])
		}
	}
	fmt.Fprintf(w, "  unattributed share of the timed interval: %.3f, trace overhead ratio: %.3f\n",
		r.Metrics["bench.unattributed_share"], r.Metrics["bench.trace_overhead_ratio"])
}
