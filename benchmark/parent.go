package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// minReps is the number of repetitions a run never goes below: host-time
// metrics are medians over fresh child processes.
const minReps = 3

// childTimeout bounds one repetition; a hung child is killed and waited
// for, and fails the run.
const childTimeout = 150 * time.Second

// runResult is one run of one workload: what the driver reads.
type runResult struct {
	Workload string
	Seed     int64
	Traced   bool
	Reps     int
	Attempt  int
	// Failed counts operations that ended in a state the workload's rules
	// forbid; every one is also listed in Breaches. An operation the
	// modelled cloud refuses or loses under the injected faults is a
	// measured outcome (op_ok_ratio, deadline_hit_ratio), not a failure
	// of the benchmark.
	Failed   int
	Breaches []string
	Digest   uint64
	Metrics  map[string]float64
	// WallRaw is the median timed interval of an untraced run as the
	// clock read it, before stolen time was taken off (see steal.go).
	WallRaw float64
	// Exact keeps the exact counters of untraced runs too, so that sets
	// can be compared on them.
	Exact map[string]float64
}

func (r *runResult) correct() bool { return len(r.Breaches) == 0 }

// spawnRep runs one repetition in a fresh child process.
func spawnRep(name string, seed int64, traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// Run waits for the child; on timeout the context kills it first.
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: repetition failed: %w", name, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: reading the repetition's result: %w", name, err)
	}
	return &res, nil
}

// sameExact lists the keys on which two exact maps differ.
func sameExact(a, b map[string]float64) []string {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var diff []string
	for k := range keys {
		if a[k] != b[k] {
			diff = append(diff, k)
		}
	}
	sort.Strings(diff)
	return diff
}

// checkRepeat enforces the benchmark's rule that one seed on one commit
// yields one model: digest, virtual-time metrics and exact counters of
// rep must equal those of first.
func checkRepeat(res *runResult, first, rep *repResult, what string) {
	if rep.Digest != first.Digest {
		res.Breaches = append(res.Breaches, fmt.Sprintf("%s: model digest %016x differs from %016x for the same seed", what, rep.Digest, first.Digest))
	}
	for _, k := range sameExact(first.Virtual, rep.Virtual) {
		res.Breaches = append(res.Breaches, fmt.Sprintf("%s: virtual-time metric %s did not repeat (%v then %v)", what, k, first.Virtual[k], rep.Virtual[k]))
	}
	for _, k := range sameExact(first.Exact, rep.Exact) {
		res.Breaches = append(res.Breaches, fmt.Sprintf("%s: exact counter %s did not repeat (%v then %v)", what, k, first.Exact[k], rep.Exact[k]))
	}
}

// runWorkload makes one run: repetitions in fresh child processes for
// about the given number of seconds (never fewer than minReps), or, when
// traced, one untraced and one traced repetition.
func runWorkload(name string, seed int64, seconds int, traced bool) (*runResult, error) {
	res := &runResult{Workload: name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}
	start := time.Now()
	budget := time.Duration(seconds) * time.Second

	var reps []*repResult
	for {
		t0 := time.Now()
		rep, err := spawnRep(name, seed, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		if traced {
			break
		}
		// Stop when another repetition would overrun the measuring time.
		if len(reps) >= minReps && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	first := reps[0]
	res.Reps, res.Attempt, res.Digest = len(reps), first.Attempt, first.Digest
	res.Breaches = append(res.Breaches, first.Breaches...)
	for i, rep := range reps[1:] {
		checkRepeat(res, first, rep, fmt.Sprintf("repetition %d", i+2))
	}

	res.Exact = first.Exact
	if !traced {
		for _, m := range hostMetrics {
			vals := make([]float64, len(reps))
			for i, rep := range reps {
				vals[i] = rep.Host[m]
			}
			res.Metrics[m] = median(vals)
		}
		raw := make([]float64, len(reps))
		for i, rep := range reps {
			raw[i] = rep.Host["wall_raw_s"]
		}
		res.WallRaw = median(raw)
		for _, m := range virtualMetrics {
			res.Metrics[m] = first.Virtual[m]
		}
	} else {
		tr, err := spawnRep(name, seed, true)
		if err != nil {
			return nil, err
		}
		// Tracing must observe the model, never change it.
		checkRepeat(res, first, tr, "traced repetition")
		res.Breaches = append(res.Breaches, tr.Breaches...)
		for _, m := range perLayer {
			if v, ok := tr.Exact[m.Name]; ok {
				res.Metrics[m.Name] = v
			} else {
				res.Metrics[m.Name] = tr.Layer[m.Name] // 0 where the layer did no work
			}
		}
		if w := first.Host["wall_s"]; w > 0 {
			res.Metrics["bench.trace_overhead_ratio"] = tr.Host["wall_s"] / w
		}
	}
	res.Failed = len(res.Breaches)
	return res, nil
}

// resultLine renders the one-line JSON object the driver reads.
func resultLine(r *runResult) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	metrics := make(map[string]val, len(specs))
	correct := r.correct()
	for _, m := range specs {
		v := r.Metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, correct = 0, false // JSON has no such number; a metric that is one is a bug
		}
		metrics[m.Name] = val{v, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, max(r.Attempt, 1), r.Failed, metrics}) // finite numbers and strings always marshal
	return string(line)
}
