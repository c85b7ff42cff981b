package vcloud_test

import (
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/trace"
	"vcloud/internal/vcloud"
)

// diamondSpec is the canonical four-stage test DAG: 0 fans out to 1 and
// 2, which join at 3. Stage 1 is the heavy arm, so the critical path is
// 0 -> 1 -> 3.
func diamondSpec() vcloud.JobSpec {
	return vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 1000, InputBytes: 500, OutputBytes: 300},   // ingest
			{Ops: 2000, OutputBytes: 300, Deps: []int{0}},    // heavy
			{Ops: 800, OutputBytes: 300, Deps: []int{0}},     // light
			{Ops: 1000, OutputBytes: 200, Deps: []int{1, 2}}, // join
		},
		ReplicaBudget: 2,
		StageRetries:  2,
	}
}

// TestJobPipelineCompletes is the happy path: a diamond DAG runs each
// stage on the values its dispatch carries, the critical path absorbs
// the replica budget, and the job completes with every stage done.
func TestJobPipelineCompletes(t *testing.T) {
	s := parkingScenario(t, 6)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var res vcloud.JobResult
	fired := 0
	if err := d.SubmitJobAnywhere(diamondSpec(), func(r vcloud.JobResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}

	if fired != 1 {
		t.Fatalf("job callback fired %d times, want 1", fired)
	}
	if !res.OK || res.Partial {
		t.Fatalf("job: ok=%v partial=%v reason=%q, want clean completion", res.OK, res.Partial, res.Reason)
	}
	for i, st := range res.Stages {
		if st.Status != vcloud.StageDone {
			t.Errorf("stage %d status = %s, want done", i, st.Status)
		}
	}
	if res.ExtraReplicas != 2 {
		t.Errorf("extra replicas = %d, want the full budget of 2 on the critical path", res.ExtraReplicas)
	}
	if res.Value == 0 {
		t.Error("job value digest is zero")
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v, want > 0", res.Latency)
	}
	if got := stats.JobsCompleted.Value(); got != 1 {
		t.Errorf("JobsCompleted = %d, want 1", got)
	}
	if got := d.ActiveControllers()[0].PendingJobs(); got != 0 {
		t.Errorf("pending jobs after completion = %d, want 0", got)
	}
}

// TestStageLieCostsOneWrongVote: a member that lies on stage 0 of a
// three-stage chain, three copies per stage, costs the job exactly the
// one wrong vote it cast there. Successors compute on the value the
// controller decided, never on the lie, so the job's value is the
// digest chain over the honest stage values. Fleets of 4 to 7 vehicles
// run with each member in turn as the liar; the wrong votes are read
// when stage 0 is decided and again when the job finishes.
func TestStageLieCostsOneWrongVote(t *testing.T) {
	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 1000, InputBytes: 400, OutputBytes: 300},
			{Ops: 1000, OutputBytes: 300, Deps: []int{0}},
			{Ops: 1000, OutputBytes: 200, Deps: []int{1}},
		},
		ReplicaBudget: 6, // three copies of every stage
	}
	counted := 0
	for vehicles := 4; vehicles <= 7; vehicles++ {
		for liar := 0; liar < vehicles; liar++ {
			s := parkingScenario(t, vehicles)
			stats := &vcloud.Stats{}
			atStage0 := ^uint64(0)
			cfg := vcloud.DeployConfig{Controller: vcloud.ControllerConfig{Trace: func(e trace.Event) {
				if e.Kind == trace.StageDone && e.Stage == 0 {
					atStage0 = stats.WrongVotes.Value()
				}
			}}}
			d, err := vcloud.Deploy(s, vcloud.Stationary, cfg, stats)
			if err != nil {
				t.Fatal(err)
			}
			sortedMembers(d)[liar].SetResultTamper(func(task vcloud.Task, v uint64) uint64 {
				if task.Stage != nil && task.Stage.Stage == 0 {
					return v ^ 1
				}
				return v
			})
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			if err := s.RunFor(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			var res vcloud.JobResult
			id, err := d.Controllers[0].SubmitJob(spec, func(r vcloud.JobResult) { res = r })
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunFor(time.Minute); err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("%d vehicles, liar %d: job failed (%q)", vehicles, liar, res.Reason)
			}
			wrong := stats.WrongVotes.Value()
			if atStage0 > 1 || wrong != atStage0 {
				t.Errorf("%d vehicles, liar %d: %d wrong votes when stage 0 was decided, %d at the end; want the liar's one vote at most, and nothing after",
					vehicles, liar, atStage0, wrong)
			}
			if atStage0 == 1 {
				counted++
			}
			var in []uint64
			for i, st := range spec.Stages {
				in = []uint64{vcloud.StageDigest(id, i, st.Ops, in)}
			}
			if want := vcloud.StageDigest(id, -1, 0, in); res.Value != want {
				t.Errorf("%d vehicles, liar %d: job value %x, want the honest chain's %x", vehicles, liar, res.Value, want)
			}
		}
	}
	if counted == 0 {
		t.Error("the liar's vote never counted on stage 0: no run tested a lie")
	}
	t.Logf("the liar's stage-0 vote counted in %d runs", counted)
}

// splitVote makes every member of d return its own value for stage
// stage of any job, so that stage's copies never agree: it fails on
// no-quorum every time it runs.
func splitVote(d *vcloud.Deployment, stage int) {
	for _, m := range sortedMembers(d) {
		own := uint64(m.Addr()) + 1
		m.SetResultTamper(func(t vcloud.Task, v uint64) uint64 {
			if t.Stage != nil && t.Stage.Stage == stage {
				return v + own
			}
			return v
		})
	}
}

// TestJobOptionalBranchDegrades: an optional stage whose copies never
// agree exhausts its budget and is abandoned; the job completes as a
// partial result instead of failing.
func TestJobOptionalBranchDegrades(t *testing.T) {
	s := parkingScenario(t, 5)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 1000, OutputBytes: 200},
			{Ops: 1000, OutputBytes: 200, Deps: []int{0}, Optional: true},
			{Ops: 500, OutputBytes: 100, Deps: []int{1}, Optional: true},
		},
		ReplicaBudget: 2, // two copies each of stages 0 and 1
	}
	splitVote(d, 1)
	var res vcloud.JobResult
	fired := 0
	if err := d.SubmitJobAnywhere(spec, func(r vcloud.JobResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if fired != 1 {
		t.Fatalf("job callback fired %d times, want 1", fired)
	}
	if !res.OK || !res.Partial {
		t.Fatalf("job: ok=%v partial=%v reason=%q, want partial completion", res.OK, res.Partial, res.Reason)
	}
	if res.Stages[0].Status != vcloud.StageDone {
		t.Errorf("required stage 0 = %s, want done", res.Stages[0].Status)
	}
	if res.Stages[1].Status != vcloud.StageAbandoned {
		t.Errorf("optional stage 1 = %s, want abandoned", res.Stages[1].Status)
	}
	if res.Stages[2].Status != vcloud.StageAbandoned {
		t.Errorf("downstream optional stage 2 = %s, want abandoned (transitively)", res.Stages[2].Status)
	}
	if got := stats.JobsPartial.Value(); got != 1 {
		t.Errorf("JobsPartial = %d, want 1", got)
	}
	if got := stats.StagesAbandoned.Value(); got != 2 {
		t.Errorf("StagesAbandoned = %d, want 2", got)
	}
}

// TestJobWholeJobRestartExhausts pins the naive E15 baseline and the
// ReasonStageFailed regression: a required stage that never reaches a
// quorum forces
// whole-job restarts that throw completed work away, until the restart
// budget runs out and the job fails.
func TestJobWholeJobRestartExhausts(t *testing.T) {
	s := parkingScenario(t, 5)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 1000, OutputBytes: 200},
			{Ops: 1000, OutputBytes: 200, Deps: []int{0}},
		},
		ReplicaBudget:   2, // two copies each of stages 0 and 1
		WholeJobRestart: true,
	}
	splitVote(d, 1)
	var res vcloud.JobResult
	fired := 0
	if err := d.SubmitJobAnywhere(spec, func(r vcloud.JobResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if fired != 1 {
		t.Fatalf("job callback fired %d times, want 1", fired)
	}
	if res.OK {
		t.Fatal("job completed despite a required stage that never reaches a quorum")
	}
	if res.Reason != vcloud.ReasonStageFailed {
		t.Errorf("reason = %q, want %q", res.Reason, vcloud.ReasonStageFailed)
	}
	if res.Restarts != 3 {
		t.Errorf("restarts = %d, want the full budget of 3", res.Restarts)
	}
	// Stage 0 completed once per attempt (4 attempts) and every copy was
	// thrown away.
	if res.WastedOps < 4000 {
		t.Errorf("wasted ops = %.0f, want >= 4000 (four discarded stage-0 runs)", res.WastedOps)
	}
	if got := stats.JobRestarts.Value(); got != 3 {
		t.Errorf("JobRestarts = %d, want 3", got)
	}
	if got := stats.JobsFailed.Value(); got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
}

// TestJobDeadlineFailsJob pins ReasonDeadline at the job layer: a job
// whose deadline passes mid-flight fails with the deadline reason
// rather than retrying forever.
func TestJobDeadlineFailsJob(t *testing.T) {
	s := parkingScenario(t, 5)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 1000, OutputBytes: 200},
			{Ops: 50000, OutputBytes: 200, Deps: []int{0}},
		},
		Deadline: s.Kernel.Now() + 3*time.Second,
	}
	var res vcloud.JobResult
	fired := 0
	if err := d.SubmitJobAnywhere(spec, func(r vcloud.JobResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if fired != 1 {
		t.Fatalf("job callback fired %d times, want 1", fired)
	}
	if res.OK || res.Reason != vcloud.ReasonDeadline {
		t.Errorf("job: ok=%v reason=%q, want deadline failure", res.OK, res.Reason)
	}
}

// TestJobFailoverResumesMidDAG: a controller crash mid-job loses the
// callback but not the job — the promoted standby restores it from the
// checkpoint, re-dispatches the in-flight stage, and completes it
// exactly once.
func TestJobFailoverResumesMidDAG(t *testing.T) {
	s := parkingScenario(t, 8)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{Failover: true}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]

	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 5000, OutputBytes: 300},
			{Ops: 5000, OutputBytes: 300, Deps: []int{0}},
			{Ops: 5000, OutputBytes: 200, Deps: []int{1}},
		},
		StageRetries: 3,
	}
	if _, err := gate.SubmitJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate.Crash()
	if err := s.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}

	if got := stats.Failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if got := stats.JobsResumed.Value(); got != 1 {
		t.Errorf("JobsResumed = %d, want 1", got)
	}
	if got := stats.JobsCompleted.Value(); got != 1 {
		t.Errorf("JobsCompleted = %d, want 1 (the successor finished the DAG)", got)
	}
	if got := stats.JobsFailed.Value(); got != 0 {
		t.Errorf("JobsFailed = %d, want 0", got)
	}
	live := d.ActiveControllers()
	if len(live) != 1 {
		t.Fatalf("active controllers = %d, want 1", len(live))
	}
	if got := live[0].PendingJobs(); got != 0 {
		t.Errorf("successor pending jobs = %d, want 0", got)
	}
	for _, v := range live[0].InvariantViolations() {
		t.Errorf("successor invariant violation: %s", v)
	}
}

// TestControllerStopFailsInFlightJob: Stop with a DAG job mid-flight
// fails the job exactly once, with ReasonControllerStopped. The stopping
// controller fails the running stage's task too, but that failure is not
// applied to the job as a stage outcome — no stage retry is charged and
// no stage is left running — and nothing lands after Stop.
func TestControllerStopFailsInFlightJob(t *testing.T) {
	s := parkingScenario(t, 6)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]
	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Ops: 5000, OutputBytes: 300},
			{Ops: 5000, OutputBytes: 300, Deps: []int{0}},
			{Ops: 5000, OutputBytes: 200, Deps: []int{1}},
		},
		StageRetries: 3,
	}
	var results []vcloud.JobResult
	if _, err := gate.SubmitJob(spec, func(r vcloud.JobResult) { results = append(results, r) }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || gate.PendingJobs() != 1 {
		t.Fatalf("job settled before Stop (%d results, %d pending): nothing in flight to stop", len(results), gate.PendingJobs())
	}
	retries, tasksDone := stats.StageRetries.Value(), stats.Completed.Value()

	gate.Stop()
	if len(results) != 1 {
		t.Fatalf("Stop fired the job callback %d times, want 1", len(results))
	}
	res := results[0]
	if res.OK || res.Reason != vcloud.ReasonControllerStopped {
		t.Errorf("job: ok=%v reason=%q, want a %q failure", res.OK, res.Reason, vcloud.ReasonControllerStopped)
	}
	done := 0
	for i, st := range res.Stages {
		if st.Status == vcloud.StageRunning || st.Status == vcloud.StageFailed {
			t.Errorf("stage %d reported %s after Stop: the stopping failure reached the job", i, st.Status)
		}
		if st.Status == vcloud.StageDone {
			done++
		}
	}
	if done == len(res.Stages) {
		t.Error("every stage reported done: the job was not in flight")
	}
	if got := stats.StageRetries.Value(); got != retries {
		t.Errorf("StageRetries moved %d -> %d across Stop", retries, got)
	}

	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("job callback fired %d times by the end, want 1", len(results))
	}
	if got := stats.StageRetries.Value(); got != retries {
		t.Errorf("StageRetries moved %d -> %d after Stop", retries, got)
	}
	if got := stats.Completed.Value(); got != tasksDone {
		t.Errorf("tasks completed moved %d -> %d after Stop", tasksDone, got)
	}
	if stats.JobsFailed.Value() != 1 || stats.JobsCompleted.Value() != 0 || gate.PendingJobs() != 0 {
		t.Errorf("jobs failed %d, completed %d, pending %d; want 1, 0, 0",
			stats.JobsFailed.Value(), stats.JobsCompleted.Value(), gate.PendingJobs())
	}
	for _, v := range gate.InvariantViolations() {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestEdgeServerTakesCriticalStages: an RSU edge server joins the cloud
// as a first-class placement target; with more compute than any vehicle
// it wins the job's stages despite its per-task offload delay, and its
// infinite dwell exempts it from the residual-dwell gate.
func TestEdgeServerTakesCriticalStages(t *testing.T) {
	s := parkingScenario(t, 4)
	rsu2, err := s.AddRSU(geo.Point{X: 20, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := vcloud.NewEdgeServer(rsu2, vcloud.EdgeConfig{CPU: 20000, Storage: 4096}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if edge.Controller() < 0 {
		t.Fatal("edge server never joined a controller")
	}
	// The tamper hook, value unchanged, counts the stages the edge
	// server computes.
	onEdge := 0
	edge.SetResultTamper(func(task vcloud.Task, v uint64) uint64 {
		if task.Stage != nil {
			onEdge++
		}
		return v
	})

	var res vcloud.JobResult
	if err := d.SubmitJobAnywhere(diamondSpec(), func(r vcloud.JobResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("job failed: reason=%q", res.Reason)
	}
	if onEdge == 0 {
		t.Error("no stage placed on the edge server despite 20x vehicle compute")
	}
}

// randomJobSpec draws a random DAG shape for the property tests: up to
// 12 stages, random dependencies among earlier stages, random budget.
func randomJobSpec(rng *rand.Rand) vcloud.JobSpec {
	n := 1 + rng.Intn(12)
	spec := vcloud.JobSpec{ReplicaBudget: rng.Intn(8), ReplicateAll: rng.Intn(2) == 0}
	for i := 0; i < n; i++ {
		st := vcloud.StageSpec{Ops: 100 + rng.Float64()*2000, OutputBytes: rng.Intn(1000)}
		if i > 0 {
			k := rng.Intn(i + 1)
			if k > 3 {
				k = 3
			}
			for _, d := range rng.Perm(i)[:k] {
				st.Deps = append(st.Deps, d)
			}
		}
		spec.Stages = append(spec.Stages, st)
	}
	return spec
}

// TestTopoOrderDeterministicProperty: across 100 random DAGs, TopoOrder
// is a valid topological order, is a permutation of the stages, and is
// identical on every recomputation — the determinism the scheduler's
// byte-stable dispatch relies on, independent of test execution order
// (go test -shuffle=on).
func TestTopoOrderDeterministicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		spec := randomJobSpec(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: generated spec invalid: %v", trial, err)
		}
		order, err := vcloud.TopoOrder(&spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(order) != len(spec.Stages) {
			t.Fatalf("trial %d: order has %d entries for %d stages", trial, len(order), len(spec.Stages))
		}
		pos := make(map[int]int, len(order))
		for p, i := range order {
			if _, dup := pos[i]; dup {
				t.Fatalf("trial %d: stage %d appears twice", trial, i)
			}
			pos[i] = p
		}
		for i, st := range spec.Stages {
			for _, dep := range st.Deps {
				if pos[dep] >= pos[i] {
					t.Fatalf("trial %d: dep %d not before stage %d in %v", trial, dep, i, order)
				}
			}
		}
		for rep := 0; rep < 3; rep++ {
			again, err := vcloud.TopoOrder(&spec)
			if err != nil {
				t.Fatalf("trial %d: recompute: %v", trial, err)
			}
			for k := range order {
				if again[k] != order[k] {
					t.Fatalf("trial %d: recomputation diverged: %v vs %v", trial, again, order)
				}
			}
		}
	}
}

// TestReplicaBudgetNeverExceededProperty: across 100 random DAGs (both
// critical-path and replicate-all allocation), the allocation spends at
// most the budget and gives every stage at least one copy.
func TestReplicaBudgetNeverExceededProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		spec := randomJobSpec(rng)
		order, err := vcloud.TopoOrder(&spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		alloc := vcloud.AllocateReplicas(&spec, order)
		extra := 0
		for i, k := range alloc {
			if k < 1 {
				t.Fatalf("trial %d: stage %d allocated %d replicas, want >= 1", trial, i, k)
			}
			extra += k - 1
		}
		if extra > spec.ReplicaBudget {
			t.Fatalf("trial %d: allocation spent %d extras over budget %d (replicateAll=%v)",
				trial, extra, spec.ReplicaBudget, spec.ReplicateAll)
		}
	}
}

// TestCriticalityIdentifiesLongestPath pins the criticality math on the
// diamond: the heavy arm is critical, the light arm is not.
func TestCriticalityIdentifiesLongestPath(t *testing.T) {
	spec := diamondSpec()
	order, err := vcloud.TopoOrder(&spec)
	if err != nil {
		t.Fatal(err)
	}
	crit, pathOps := vcloud.Criticality(&spec, order)
	if want := 1000.0 + 2000 + 1000; pathOps != want {
		t.Fatalf("critical path = %.0f ops, want %.0f", pathOps, want)
	}
	for _, i := range []int{0, 1, 3} {
		if crit[i] != pathOps {
			t.Errorf("stage %d criticality %.0f, want on the critical path (%.0f)", i, crit[i], pathOps)
		}
	}
	if crit[2] >= pathOps {
		t.Errorf("light arm criticality %.0f, want < %.0f", crit[2], pathOps)
	}
}
