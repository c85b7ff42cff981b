package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesJSON keeps BENCHMARK.json and the tables in spec.go from
// drifting apart: the driver reads the one, the benchmark prints the other.
func TestSpecMatchesJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; spec.go has %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go has %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go has %+v", i, j, m)
		}
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go has %+v", i, j, m)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

// TestSpecWithinContract checks the naming and counting limits the
// driver refuses a benchmark for.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := builders[w.Name]; !ok {
			t.Errorf("workload %s has no builder", w.Name)
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
	}
	for n := range exactLayer {
		if !seen[n] {
			t.Errorf("exactLayer names %q, which is not a per-layer metric", n)
		}
	}
	for n := range derivedLayer {
		if !seen[n] || exactLayer[n] {
			t.Errorf("derivedLayer names %q, which is undeclared or also declared exact", n)
		}
	}
	if len(hostMetrics)+len(virtualMetrics) != len(endToEnd) {
		t.Error("every end-to-end metric is either a host-time or a virtual-time metric")
	}
}

func TestTailPercentileRule(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{1000, 99, 990}, // exactly ten samples beyond p99
		{999, 95, 950},  // nine beyond p99: not enough
		{200, 95, 190},
		{199, 90, 180},
		{40, 75, 30},
		{39, 50, 20},
		{20, 50, 10},
		{5, 50, 3}, // no percentile qualifies: the median
	}
	for _, c := range cases {
		pct, val := tailPercentile(samples(c.n))
		if pct != c.wantPct || val != c.wantVal {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", c.n, pct, val, c.wantPct, c.wantVal)
		}
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},    // plain child
		{ID: 2, Parent: 1, Name: "a.in", Start: 12, End: 20}, // nested: must not be subtracted from run again
		{ID: 3, Parent: 0, Name: "b", Start: 25, End: 50},    // overlaps a by 5
		{ID: 4, Parent: 0, Name: "c", Start: 90, End: 120},   // runs past the parent: clipped
		{ID: 5, Parent: 0, Name: "d", Start: 40, End: 45},    // wholly inside b
	}
	self := selfTimes(spans)
	// Children of run cover [10,50) and [90,100): 50 of 100.
	want := []int64{50, 12, 8, 25, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	sum := summarize(spans)
	if got := sum["run"].SelfS; got != 50e-9 {
		t.Errorf("summarize: run self = %v s, want 50e-9", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", 1)) // a nil tracer records nothing and does not panic
	tr := newTracer()
	a := tr.begin("a", -1)
	b := tr.begin("b", 7)
	tr.end(b)
	c := tr.begin("c", -1)
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 || tr.spans[b].Op != 7 {
		t.Errorf("bad parents: %+v", tr.spans)
	}
}

func TestBoundComparison(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ratio", Better: "higher", Bound: 0.02}
	cases := []struct {
		m         metricSpec
		prev, cur float64
		want      bool
	}{
		{lower, 10, 10.9, false}, // 9% slower: inside the bound
		{lower, 10, 11.1, true},  // 11% slower
		{lower, 10, 5, false},    // faster is never a regression
		{higher, 0.95, 0.94, false},
		{higher, 0.95, 0.92, true},
		{higher, 0.95, 0.99, false},
	}
	for _, c := range cases {
		if got := regressed(c.prev, c.cur, c.m); got != c.want {
			t.Errorf("%s %v -> %v: regressed = %v, want %v", c.m.Name, c.prev, c.cur, got, c.want)
		}
	}
	if best, worst := extremes([]float64{10, 9, 11}, "lower"); best != 9 || worst != 11 {
		t.Errorf("extremes(lower) = %v, %v", best, worst)
	}
	if best, worst := extremes([]float64{0.9, 0.95, 0.8}, "higher"); best != 0.95 || worst != 0.8 {
		t.Errorf("extremes(higher) = %v, %v", best, worst)
	}
}

func TestQuietWall(t *testing.T) {
	s := func(ms ...int) []time.Duration {
		out := make([]time.Duration, len(ms))
		for i, m := range ms {
			out[i] = time.Duration(m) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name          string
		wall          time.Duration
		before, after []time.Duration
		want          time.Duration
	}{
		{"no steal", 4 * time.Second, s(500, 70), s(500, 70), 4 * time.Second},
		{"one busy processor", 5 * time.Second, s(0, 100), s(1000, 100), 4 * time.Second},
		// Two busy processors stolen for a quarter each: the spells overlap
		// for a sixteenth, so 7/16 of the interval goes.
		{"two busy processors", 4 * time.Second, s(0, 0), s(1000, 1000), 2250 * time.Millisecond},
		{"never more than nine tenths", time.Second, s(0), s(2000), 100 * time.Millisecond},
		{"kernel does not say", 3 * time.Second, nil, nil, 3 * time.Second},
		{"processor count changed", 3 * time.Second, s(0), s(10, 10), 3 * time.Second},
	}
	for _, c := range cases {
		got := quietWall(c.wall, c.before, c.after)
		if d := got - c.want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%s: quietWall = %v, want %v", c.name, got, c.want)
		}
	}
}

// smallRep runs one repetition in-process at about 1/50 scale.
func smallRep(t *testing.T, name string, seed int64, traced bool) *repResult {
	t.Helper()
	e := &env{seed: seed, scale: 0.02, spanDir: t.TempDir()}
	if traced {
		e.tr = newTracer()
	}
	res, err := runRep(name, e)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkloadsAtSmallScale runs every workload traced and untraced at
// about 1/50 scale: no correctness breach, every end-to-end metric
// present, every reported name declared, and tracing leaves the model
// untouched.
func TestWorkloadsAtSmallScale(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := smallRep(t, w.Name, 1, false)
			traced := smallRep(t, w.Name, 1, true)
			for _, r := range []*repResult{plain, traced} {
				for _, b := range r.Breaches {
					t.Errorf("breach: %s", b)
				}
				for _, m := range hostMetrics {
					if r.Host[m] <= 0 {
						t.Errorf("%s = %v, want > 0", m, r.Host[m])
					}
				}
				for _, m := range virtualMetrics {
					if v, ok := r.Virtual[m]; !ok || v <= 0 {
						t.Errorf("%s = %v, want > 0", m, v)
					}
				}
				for name := range r.Exact {
					if !declared[name] || !exactLayer[name] {
						t.Errorf("exact counter %s is not declared exact in spec.go", name)
					}
				}
			}
			for name := range traced.Layer {
				if !declared[name] || exactLayer[name] {
					t.Errorf("host-time layer metric %s is undeclared or declared exact", name)
				}
			}
			if plain.Digest != traced.Digest {
				t.Errorf("tracing changed the model: digest %016x untraced, %016x traced", plain.Digest, traced.Digest)
			}
			if diff := sameExact(plain.Exact, traced.Exact); len(diff) > 0 {
				t.Errorf("tracing changed exact counters %v", diff)
			}
			if other := smallRep(t, w.Name, 2, false); other.Digest == plain.Digest {
				t.Errorf("seeds 1 and 2 gave the same digest %016x: inputs do not follow the seed", plain.Digest)
			}
		})
	}
}

// TestLayersIdleWhereTheTableSaysSo pins the per-layer table's claims
// about which layers a workload leaves alone.
func TestLayersIdleWhereTheTableSaysSo(t *testing.T) {
	for _, w := range workloads {
		r := smallRep(t, w.Name, 1, true)
		parked := w.Name == "parked_kv_offload" || w.Name == "secure_join"
		if steps := r.Layer["mobility.steps"]; parked != (steps == 0) {
			t.Errorf("%s: mobility.steps = %v", w.Name, steps)
		}
		if has := r.Layer["store.put_s"] > 0 && r.Exact["vcloud.gov_placed_vehicle"] > 0; has != (w.Name == "parked_kv_offload") {
			t.Errorf("%s: store and governor active = %v", w.Name, has)
		}
		if has := r.Exact["sim_shard.windows"] > 0; has != (w.Name == "shard_metro") {
			t.Errorf("%s: sim_shard active = %v", w.Name, has)
		}
		if has := r.Exact["auth.handshakes_ok"] > 0; has != (w.Name == "secure_join") {
			t.Errorf("%s: auth active = %v", w.Name, has)
		}
	}
}

// TestShardMetroMatchesSerial is the sharded kernel's contract as the
// traced run checks it: the world's checksum at 1 and 4 shards equals
// the 2-shard one, and a differing checksum is a breach.
func TestShardMetroMatchesSerial(t *testing.T) {
	inst, err := buildShardMetro(&env{seed: 3, scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.run(); err != nil {
		t.Fatal(err)
	}
	if breaches := inst.probes(map[string]float64{}); len(breaches) > 0 {
		t.Errorf("shard counts disagree: %v", breaches)
	}
	inst.(*shardMetro).res.Checksum ^= 1
	if breaches := inst.probes(map[string]float64{}); len(breaches) != 2 {
		t.Errorf("a corrupted 2-shard checksum gave %d breaches, want one per other shard count", len(breaches))
	}
}

// TestCorruptedDigestFailsTheRun shows the one command exits non-zero
// when a correctness check fails: a repetition whose digest differs from
// the first one's makes the run incorrect.
func TestCorruptedDigestFailsTheRun(t *testing.T) {
	first := smallRep(t, "secure_join", 1, false)
	again := smallRep(t, "secure_join", 1, false)
	res := &runResult{Workload: "secure_join", Seed: 1, Attempt: first.Attempt, Metrics: map[string]float64{}, Exact: first.Exact}
	for _, m := range virtualMetrics {
		res.Metrics[m] = first.Virtual[m]
	}
	for _, m := range hostMetrics {
		res.Metrics[m] = first.Host[m]
	}
	checkRepeat(res, first, again, "repetition 2")
	var out bytes.Buffer
	if code := report(&out, res); code != 0 || !res.correct() {
		t.Fatalf("an honest repeat failed the run (exit %d): %v", code, res.Breaches)
	}
	again.Digest ^= 1
	checkRepeat(res, first, again, "repetition 2")
	res.Failed = len(res.Breaches)
	out.Reset()
	if code := report(&out, res); code == 0 {
		t.Fatal("a corrupted digest did not fail the run")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed != 1 || len(last.Metrics) != len(endToEnd) {
		t.Errorf("result line = %+v", last)
	}
}
