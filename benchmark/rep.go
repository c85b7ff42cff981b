package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// env is what a workload is built from. The seed is the only source of
// variation: every input the program receives is generated from it.
type env struct {
	seed int64
	// scale shrinks fleet sizes and horizons. Every measured run is at 1;
	// only the package tests set it, to about 1/50.
	scale float64
	// tr records spans in a traced run and is nil otherwise.
	tr *tracer
	// spanDir is where a traced run writes its span log; empty means
	// defaultSpanDir under the working directory (the checkout root).
	spanDir string
}

// instance is a built workload: set-up is done, the cloud has formed.
type instance interface {
	// run executes the timed interval: the workload's fixed virtual
	// horizon plus drain.
	run() error
	// finish audits the run and reads every exact counter.
	finish() (*outcome, error)
	// probes drives isolated layer probes over the workload's own world
	// and writes host-time per-layer metrics; traced runs only. It
	// returns any correctness breach the probes came across.
	probes(layer map[string]float64) []string
}

// outcome is the model-side result of one repetition: identical for one
// seed on one commit, traced or not.
type outcome struct {
	Attempted int
	OK        int
	OnTime    int
	// Latencies are the ascending virtual-time samples (ms) the latency
	// percentiles are taken over: the latencies of OK ops, or on
	// shard_metro the per-tick awareness gaps.
	Latencies []float64
	// Counters are the exact per-layer metrics that are model output:
	// they enter the digest.
	Counters map[string]float64
	// Derived are per-layer work figures the benchmark computes from its
	// own configuration because the layer exposes no counter (see
	// derivedLayer). They are not observations of the program, so they
	// stay out of the digest and of the exact-repeat rule.
	Derived map[string]float64
	// Telemetry are exact per-layer metrics that depend on how the run
	// was partitioned (the sharded kernel's event, window and handoff
	// counts): they repeat for one configuration but stay out of the
	// digest, so the 1-shard run can be compared.
	Telemetry map[string]float64
	// OpDigest folds the ordered op outcomes.
	OpDigest uint64
	// Breaches lists correctness-gate violations; any fails the run.
	Breaches []string
}

// repResult is what one child process reports to the parent.
type repResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Breaches []string           `json:"breaches"`
	Attempt  int                `json:"attempted"`
	OK       int                `json:"ok"`
	Digest   uint64             `json:"digest"`
	Host     map[string]float64 `json:"host"`
	Virtual  map[string]float64 `json:"virtual"`
	Exact    map[string]float64 `json:"exact"`
	Layer    map[string]float64 `json:"layer"`
}

var builders = map[string]func(*env) (instance, error){
	"vanet_city":        buildVanetCity,
	"cloud_storm":       buildCloudStorm,
	"parked_kv_offload": buildParkedKV,
	"secure_join":       buildSecureJoin,
	"shard_metro":       buildShardMetro,
}

// rusage returns this process's user+sys CPU seconds so far and its peak
// resident set in MB.
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRep builds and runs one repetition of a workload in this process.
func runRep(name string, e *env) (*repResult, error) {
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// Wall-clock intervals are reported net of the time the hypervisor
	// held a processor back from this guest: see steal.go.
	steal0 := stealTimes()
	t0 := time.Now()
	sid := e.tr.begin("bench.setup", -1)
	inst, err := build(e)
	e.tr.end(sid)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	setup := time.Since(t0)
	steal1 := stealTimes()

	// Collect set-up garbage now so the timed interval starts from the
	// live heap of the built world.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := rusage()
	steal2 := stealTimes()
	t1 := time.Now()
	rid := e.tr.begin("bench.timed", -1)
	err = inst.run()
	e.tr.end(rid)
	wall := time.Since(t1)
	steal3 := stealTimes()
	cpu1, rss := rusage()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", name, err)
	}

	out, err := inst.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", name, err)
	}
	res := &repResult{
		Workload: name,
		Seed:     e.seed,
		Traced:   e.tr != nil,
		Breaches: out.Breaches,
		Attempt:  out.Attempted,
		OK:       out.OK,
		Host: map[string]float64{
			"setup_s":     quietWall(setup, steal0, steal1).Seconds(),
			"wall_s":      quietWall(wall, steal2, steal3).Seconds(),
			"wall_raw_s":  wall.Seconds(),
			"cpu_s":       cpu1 - cpu0,
			"alloc_mb":    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			"peak_rss_mb": rss,
		},
		Virtual: map[string]float64{},
		Exact:   out.Counters,
		Layer:   map[string]float64{},
	}
	if res.Exact == nil {
		res.Exact = map[string]float64{}
	}
	if out.Attempted < 1 {
		res.Breaches = append(res.Breaches, "no operation attempted")
		out.Attempted = 1
	}
	res.Virtual["op_ok_ratio"] = float64(out.OK) / float64(out.Attempted)
	res.Virtual["deadline_hit_ratio"] = float64(out.OnTime) / float64(out.Attempted)
	res.Virtual["vt_p50_ms"] = percentile(out.Latencies, 50)
	tailPct, tail := tailPercentile(out.Latencies)
	res.Virtual["vt_p99_ms"] = tail
	res.Exact["bench.op_fail_ratio"] = 1 - res.Virtual["op_ok_ratio"]
	res.Exact["bench.vt_samples"] = float64(len(out.Latencies))
	res.Exact["bench.vt_tail_pct"] = tailPct

	res.Digest = modelDigest(out.OpDigest, res.Exact)
	for k, v := range out.Telemetry {
		res.Exact[k] = v
	}
	for k, v := range out.Derived {
		res.Layer[k] = v
	}

	if e.tr != nil {
		res.Layer["go.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
		res.Layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		res.Layer["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		res.Layer["bench.steal_share"] = 1 - res.Host["wall_s"]/wall.Seconds()
		res.Breaches = append(res.Breaches, inst.probes(res.Layer)...)
		spanLayerMetrics(e.tr.spans, res)
		dir := e.spanDir
		if dir == "" {
			dir = defaultSpanDir
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("span log: %w", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))
		if err := writeJSONL(path, e.tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// defaultSpanDir is where traced runs leave their span logs, relative to
// the repository root the benchmark is run from: inside the benchmark's
// own directory; the root .gitignore names it.
const defaultSpanDir = "benchmark/spans"
