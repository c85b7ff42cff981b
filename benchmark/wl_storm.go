package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vcloud"
)

// cloud_storm: a cloud of vehicles crawling down a congested highway in
// one convoy, coordinated by the vehicle riding mid-convoy, with failover
// to a standby member, RSU edge servers joining as the convoy passes
// them, K=3 voted tasks over a fleet of which a fifth lies,
// trust-weighted and trust-gated placement, a stream of DAG jobs, and a
// seeded fault plan of member crashes, partitions, loss bursts and
// coordinator kills.
//
// Open loop: one task per 80 ms beat and one job per 1 s beat, each at
// a seeded instant inside its beat, whatever the backlog. Op = one task
// or one job, 8 s deadline. Offered load is about a tenth of the pool's
// capacity, so failures come from the faults, not from overload.
//
// Why this shape and not the dynamic, fenced cloud on a free-flowing
// highway: see README.md ("cloud_storm sizing"). In short, on the parent
// commit that configuration collapses for the rest of the run in roughly
// one seed out of four with no fault injected at all, so it cannot carry
// a regression bound.
const (
	stormVehicles  = 120
	stormHighwayM  = 16000
	stormConvoyM   = 300.0 // the fleet starts within this stretch, all eastbound
	stormSpeed     = 0.2   // desired share of the 27 m/s limit: a 5 m/s crawl
	stormBeacon    = time.Second
	stormJoinOver  = stormBeacon // joins are spread over one beacon period
	stormSettle    = time.Second
	stormWarmup    = 12 * time.Second
	stormHorizon   = 240 * time.Second
	stormDrain     = 10 * time.Second
	stormDeadline  = 8 * time.Second
	stormTaskEvery = 80 * time.Millisecond
	stormJobEvery  = time.Second
	stormByzShare  = 0.2
	stormEdgeCPU   = 4000
	stormTrustGate = 0.3
	stormCycle     = 60 * time.Second // one fault drill: loss, partition, kill, loss
	stormCore      = 8                // lowest ids: coordinator and successive standbys
)

type cloudStorm struct {
	e     *env
	s     *vcloud.Scenario
	d     *vcloud.Cloud
	stats *vcloud.CloudStats
	ws    *workerSet
	inj   *vcloud.FaultInjector

	ops     opLog
	tasks   []vcloud.Task // by op id; zero for job ops
	byz     []addr
	horizon time.Duration
	err     error // first failure inside a kernel event

	ckptSeconds  int // controller-seconds holding a standby
	voterUpdates int
	watch        *kernelWatch
	base         substrateBase
	statsBase    vcloud.CloudStats
	faultBase    int
}

func buildCloudStorm(e *env) (instance, error) {
	w := &cloudStorm{e: e, stats: &vcloud.CloudStats{}}
	n := e.count(stormVehicles, 24)
	// The convoy keeps within a few hundred metres, so links are short:
	// a 27 Mbps channel with a 250 m reliable range keeps advertisement
	// loss, and with it spurious standby promotions, rare.
	rp := radioDefaults()
	rp.BitrateMbps, rp.RangeReliable = 27, 250
	s, err := buildWorld(e.tr, highway(stormHighwayM), vcloud.ScenarioSpec{Seed: subSeed(e.seed, "fleet"), Radio: rp, BeaconPeriod: stormBeacon})
	if err != nil {
		return nil, err
	}
	w.s = s
	if err := s.Start(); err != nil {
		return nil, err
	}
	// The fleet joins spread over one beacon period (see vanet_city), at
	// seeded places along the convoy. Everyone wants the same slow speed,
	// so the convoy keeps its shape while it moves.
	place := stream(e.seed, "storm.fleet")
	for i := 0; i < n; i++ {
		pos := place.Float64()
		if i < stormCore {
			// The coordinator and its line of succession (standbys are
			// taken lowest address first) ride mid-convoy: in range of
			// everyone, and never on the far side of a partition that
			// cuts off an end.
			pos = 0.42 + 0.16*pos
		}
		frac := pos * stormConvoyM / s.Network.Edge(0).Length
		s.Kernel.At(time.Duration(i)*stormJoinOver/time.Duration(n), func() {
			sid := e.tr.begin("scenario.AddVehicle", -1)
			if _, err := addVehicle(s, 0, frac, stormSpeed); err != nil {
				w.err = err
			}
			e.tr.end(sid)
		})
	}
	w.watch = watchKernel(s)
	if err := advance(w.e.tr, w.s, "Kernel.Run.warmup", stormSettle, &w.err); err != nil {
		return nil, err
	}

	if w.ws, err = newWorkerSet(s); err != nil {
		return nil, err
	}
	cfg := vcloud.CloudConfig{Handover: true, Failover: true}
	cfg.Controller.Depend = &vcloud.DependabilityPolicy{
		Replicas: 3, MaxRetries: 3, TrustThreshold: stormTrustGate, TrustWeighted: true,
		// A replica silent for ten typical run times is given up on, so a
		// task placed on a crashed or cut-off member recovers in seconds.
		AttemptTimeout: 1500 * time.Millisecond,
	}
	cfg.Controller.Workers = w.ws
	// No RSU exists yet, so the lowest-address vehicle coordinates.
	did := e.tr.begin("vcloud.Deploy", -1)
	w.d, err = deployCloud(s, vcloud.Stationary, cfg, w.stats)
	e.tr.end(did)
	if err != nil {
		return nil, err
	}
	// RSUs along the corridor, each hosting an edge server that joins the
	// cloud while the convoy is in range.
	for _, x := range []float64{400, 800, 1200} {
		rsu, err := s.AddRSU(vcloud.Point{X: x, Y: 15})
		if err != nil {
			return nil, err
		}
		if _, err := vcloud.NewEdgeServer(rsu, vcloud.EdgeConfig{CPU: stormEdgeCPU, Storage: 2048}, w.stats); err != nil {
			return nil, err
		}
	}
	// Which members lie comes from the seed.
	ids := s.VehicleIDs()
	pick := stream(e.seed, "storm.byzantine")
	for _, i := range pick.Perm(len(ids))[:int(stormByzShare*float64(len(ids))+0.5)] {
		m := w.d.Members[ids[i]]
		if m == nil {
			continue // the coordinator is not a worker
		}
		if err := byzantify(m); err != nil {
			return nil, err
		}
		w.byz = append(w.byz, addr(ids[i]))
	}

	// Fault plan: generated as text from the seed, parsed by the program.
	w.horizon = e.span(stormHorizon, 10*time.Second)
	t0 := stormSettle + stormWarmup
	plan, err := vcloud.ParseFaultPlan(stormPlan(e.seed, t0, w.horizon, ids))
	if err != nil {
		return nil, fmt.Errorf("generated fault plan: %w", err)
	}
	if w.inj, err = vcloud.NewFaultInjector(s); err != nil {
		return nil, err
	}
	w.inj.OnControllerKill(func(int) {
		// The plan's kill strikes the coordinator the broker submits to.
		var busiest interface {
			NumMembers() int
			Crash()
		}
		for _, c := range w.d.ActiveControllers() {
			if busiest == nil || c.NumMembers() > busiest.NumMembers() {
				busiest = c
			}
		}
		if busiest != nil {
			busiest.Crash()
		}
	})
	if err := w.inj.Schedule(plan); err != nil {
		return nil, err
	}
	if err := advance(w.e.tr, w.s, "Kernel.Run.warmup", stormWarmup, &w.err); err != nil {
		return nil, err
	}
	if len(w.d.ActiveControllers()) == 0 {
		return nil, fmt.Errorf("no controller formed during warm-up")
	}

	// Task sizes and job shapes from the seed. One submission per beat at
	// a seeded instant inside it, so ops do not all share one phase
	// against the controller's 1 s advertisement beat.
	sizes := stream(e.seed, "storm.tasks")
	for t := time.Duration(0); t < w.horizon; t += stormTaskEvery {
		due := t0 + t + time.Duration(sizes.Int63n(int64(stormTaskEvery)))
		task := vcloud.Task{Ops: 100 + 100*sizes.Float64(), InputBytes: 800, OutputBytes: 400, Deadline: due + stormDeadline}
		op := w.ops.add("task", due, stormDeadline)
		w.tasks = append(w.tasks, task)
		s.Kernel.At(due, func() { w.submitTask(op) })
	}
	shapes := stream(e.seed, "storm.jobs")
	for t := time.Duration(0); t < w.horizon; t += stormJobEvery {
		due := t0 + t + time.Duration(shapes.Int63n(int64(stormJobEvery)))
		spec := stormJob(shapes)
		spec.Deadline = due + stormDeadline
		op := w.ops.add("job", due, stormDeadline)
		w.tasks = append(w.tasks, vcloud.Task{})
		s.Kernel.At(due, func() { w.submitJob(op, spec) })
	}
	// The audit runs off the submission grid: the controller parks a
	// fail-fast outcome for one zero-delay event, and auditing between a
	// submission and that event would see a task nothing holds yet.
	s.Kernel.After(437*time.Millisecond, func() {
		if _, err := s.Kernel.Every(time.Second, w.audit); err != nil {
			w.err = err
		}
	})
	return w, nil
}

// stormPlan writes the fault plan in the program's plan language. The
// storm is a drill repeated every minute: a loss burst, a partition that
// cuts off one end of the convoy, ten quiet seconds, a coordinator kill,
// and a second loss burst once the successor has settled; member crashes
// strike throughout. Seeds move every instant, target, place, strength
// and duration, but not how much storm there is, and the kill falls in a
// quiet stretch because a coordinator that dies while it is re-electing
// its standby leaves nobody holding a checkpoint.
func stormPlan(seed int64, t0, horizon time.Duration, ids []vcloud.VehicleID) string {
	rng := stream(seed, "storm.faults")
	ms := func(d time.Duration) string { return fmt.Sprintf("%dms", d.Milliseconds()) }
	between := func(lo, hi time.Duration) time.Duration { return lo + time.Duration(rng.Int63n(int64(hi-lo))) }
	sec := time.Second
	var b strings.Builder
	loss := func(at time.Duration) {
		fmt.Fprintf(&b, "%s loss %.2f %s\n", ms(at), 0.1+0.15*rng.Float64(), ms(between(3*sec, 6*sec)))
	}
	for c := time.Duration(0); c < horizon; c += stormCycle {
		loss(t0 + c + between(0, 3*sec))
		// The convoy's centre travels from x = 150 m at about 4.8 m/s and
		// the convoy grows to some 500 m: the partition cuts off one end.
		at := t0 + c + between(10*sec, 14*sec)
		end := float64(2*rng.Intn(2) - 1)
		x := 150 + 4.8*at.Seconds() + end*float64(230+rng.Intn(60))
		fmt.Fprintf(&b, "%s partition %.0f,15 %d %s\n", ms(at), x, 90+rng.Intn(40), ms(between(4*sec, 8*sec)))
		fmt.Fprintf(&b, "%s kill-controller 0\n", ms(t0+c+between(32*sec, 36*sec)))
		loss(t0 + c + between(45*sec, 48*sec))
	}
	// Crashes strike workers: the upper half of the id range, which the
	// succession of standbys (lowest address first) never reaches.
	workers := ids[len(ids)/2:]
	for t := 3 * sec; t < horizon; t += 8 * sec {
		v := workers[rng.Intn(len(workers))]
		at := t0 + t + between(0, 2*sec)
		fmt.Fprintf(&b, "%s crash %d\n%s recover %d\n", ms(at), v, ms(at+between(4*sec, 10*sec)), v)
	}
	return b.String()
}

// stormJob draws one DAG: a diamond with a tail (0 -> {1, 2} -> 3 -> 4),
// half the time with an optional leaf off the first branch, stage sizes
// from the seed, and a small replica budget for the critical path. A job
// runs four second-long stages back to back, some thirty times a task's
// latency, so the latency tail is where the jobs live: vt_p99_ms follows
// the DAG scheduler, not the luck of which task met which fault.
func stormJob(rng interface{ Float64() float64 }) vcloud.JobSpec {
	stage := func(deps ...int) vcloud.StageSpec {
		return vcloud.StageSpec{Ops: 950 + 100*rng.Float64(), InputBytes: 800, OutputBytes: 400, Deps: deps}
	}
	spec := vcloud.JobSpec{ReplicaBudget: 2, StageRetries: 2, TaskRetries: 1}
	spec.Stages = []vcloud.StageSpec{stage(), stage(0), stage(0), stage(1, 2), stage(3)}
	if rng.Float64() < 0.5 {
		spec.Stages = append(spec.Stages, vcloud.StageSpec{Ops: 200 + 100*rng.Float64(), OutputBytes: 200, Deps: []int{1}, Optional: true})
	}
	return spec
}

func (w *cloudStorm) submitTask(op int) {
	id := w.e.tr.begin("vcloud.SubmitAnywhere", int64(op))
	err := w.d.SubmitAnywhere(w.tasks[op], func(r vcloud.TaskResult) { w.taskDone(op, r) })
	w.e.tr.end(id)
	if err != nil {
		w.ops.finish(op, w.s.Kernel.Now(), false, 0) // refused: the cloud is headless
	}
}

func (w *cloudStorm) taskDone(op int, r vcloud.TaskResult) {
	id := w.e.tr.begin("callback.task_result", int64(op))
	ok := r.OK
	// An accepted result that differs from the honest computation is a
	// failed op however confident the vote was.
	if ok && r.Value != taskValue(w.tasks[op], r.ID) {
		ok = false
	}
	w.voterUpdates += len(r.Voters)
	w.ops.finish(op, w.s.Kernel.Now(), ok, r.Value)
	w.e.tr.end(id)
}

func (w *cloudStorm) submitJob(op int, spec vcloud.JobSpec) {
	id := w.e.tr.begin("vcloud.SubmitJobAnywhere", int64(op))
	err := w.d.SubmitJobAnywhere(spec, func(r vcloud.JobResult) {
		cid := w.e.tr.begin("callback.job_result", int64(op))
		w.ops.finish(op, w.s.Kernel.Now(), r.OK, r.Value)
		w.e.tr.end(cid)
	})
	w.e.tr.end(id)
	if err != nil {
		w.ops.finish(op, w.s.Kernel.Now(), false, 0)
	}
}

// audit runs once per virtual second: controller self-audits, and the
// checkpoint estimate's controller-seconds.
func (w *cloudStorm) audit() {
	for _, c := range w.d.ActiveControllers() {
		for _, v := range c.InvariantViolations() {
			w.ops.breach("controller %d: %s", c.Addr(), v)
		}
		if c.StandbyAddr() >= 0 {
			w.ckptSeconds++
		}
	}
}

func (w *cloudStorm) run() error {
	w.base = snapSubstrate(w.s)
	w.statsBase = *w.stats
	w.faultBase = w.inj.Stats().Applied
	w.ckptSeconds, w.voterUpdates = 0, 0
	w.watch.reset()
	return advance(w.e.tr, w.s, "Kernel.Run", w.horizon+stormDrain, &w.err)
}

func (w *cloudStorm) finish() (*outcome, error) {
	for _, c := range w.d.ActiveControllers() {
		for _, v := range c.InvariantViolations() {
			w.ops.breach("controller %d at drain: %s", c.Addr(), v)
		}
	}
	c := map[string]float64{}
	substrateCounters(c, w.s, w.base, w.watch)
	derived := derivedSubstrate(w.horizon+stormDrain, w.s.Mobility.NumVehicles())
	st, b := w.stats, &w.statsBase
	delta := func(now, was uint64) float64 { return float64(now - was) }
	c["vcloud.submitted"] = delta(st.Submitted.Value(), b.Submitted.Value())
	c["vcloud.completed"] = delta(st.Completed.Value(), b.Completed.Value())
	c["vcloud.failed"] = delta(st.Failed.Value(), b.Failed.Value())
	c["vcloud.retries"] = delta(st.Retries.Value(), b.Retries.Value())
	if done := c["vcloud.completed"]; done > 0 {
		c["vcloud.dispatches_per_completion"] = delta(st.ReplicaDispatches.Value(), b.ReplicaDispatches.Value()) / done
	}
	c["vcloud.failovers"] = delta(st.Failovers.Value(), b.Failovers.Value())
	// The controller keeps no public checkpoint counter: derived as
	// controller-seconds holding a standby over the 2 s checkpoint period.
	derived["vcloud.checkpoints"] = float64(w.ckptSeconds / 2)
	c["vcloud.merges"] = delta(st.Merges.Value(), b.Merges.Value())
	c["vcloud.deduped"] = delta(st.Deduped.Value(), b.Deduped.Value())
	c["vcloud.stale_rejected"] = delta(st.StaleRejected.Value(), b.StaleRejected.Value())
	c["vcloud.jobs_completed"] = delta(st.JobsCompleted.Value(), b.JobsCompleted.Value())
	c["vcloud.stage_retries"] = delta(st.StageRetries.Value(), b.StageRetries.Value())
	if lat := w.ops.latenciesOf("job"); len(lat) > 0 {
		c["vcloud.job_vt_p50_ms"] = percentile(lat, 50)
	}
	// The worker set keeps no update counter: derived as one evidence
	// update per voter on each decided task's roster.
	derived["trust.updates"] = float64(w.voterUpdates)
	if len(w.byz) > 0 {
		gated := w.ws.Below(stormTrustGate) // ascending
		excluded := 0
		for _, a := range w.byz {
			if i := sort.Search(len(gated), func(i int) bool { return gated[i] >= a }); i < len(gated) && gated[i] == a {
				excluded++
			}
		}
		c["trust.byz_excluded_ratio"] = float64(excluded) / float64(len(w.byz))
	}
	c["faults.injected"] = float64(w.inj.Stats().Applied - w.faultBase)
	return opsOutcome(&w.ops, c, derived), nil
}

func (w *cloudStorm) probes(layer map[string]float64) []string {
	probeSubstrate(layer, w.s, w.watch.pendingMax, true)
	probeCheckpointCodec(layer, w.d)
	probeTrustUpdate(layer, w.s.Mobility.NumVehicles())
	probeShortestPath(layer, w.s.Network, w.e.seed)
	return nil
}
