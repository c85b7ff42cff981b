// Controller-side DAG job engine (PR 7 tentpole): deterministic
// topological dispatch of dependent stages onto the existing dependable
// task machinery. Each stage runs as a regular Task carrying a
// StageBinding, so placement (dwell + trust weighted, see
// placeReplicas), K-redundant voting, retries, epoch fencing and
// checkpointing all come from the layers below; this file owns the
// job-level state machine: wave dispatch, stage retry/backoff driven by
// the structured FailReason, whole-job restart (the naive baseline),
// graceful degradation of optional branches, and exactly-once stage
// outcome application riding the controller's (task, epoch) ledger.
package vcloud

import (
	"fmt"

	"vcloud/internal/sim"
	"vcloud/internal/trace"
)

// formingRetryCap bounds how many no-eligible-member stage rounds are
// forgiven without consuming the stage retry budget (the cloud may
// still be forming or healing a partition); past it, the normal budget
// applies so a memberless cloud cannot spin forever.
const formingRetryCap = 8

// jobStage is the engine's per-stage state.
type jobStage struct {
	status StageStatus
	value  uint64
	// taskID is the live underlying task (0 when none).
	taskID TaskID
	// appliedTask is the last task whose outcome was applied to this
	// stage — the tripwire for "no stage outcome applied twice".
	appliedTask TaskID
	retries     int
	forming     int
	// backoff marks a pending stage-retry timer; gen invalidates stale
	// timers across restarts.
	backoff bool
	gen     int
}

// jobState is one in-flight DAG job.
type jobState struct {
	id        JobID
	spec      JobSpec
	submitted sim.Time
	order     []int
	alloc     []int
	stages    []jobStage
	restarts  int
	wasted    float64
	done      func(JobResult)
}

// SubmitJob enters a DAG job. done fires at most once; like task
// callbacks it does not survive failover (the job itself does — it rides
// checkpoints).
func (c *Controller) SubmitJob(spec JobSpec, done func(JobResult)) (JobID, error) {
	if c.stopped {
		return 0, fmt.Errorf("vcloud: controller stopped")
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if err := c.lead.lease(c.node.Kernel().Now()); err != nil {
		return 0, err
	}
	c.nextJobID++
	id := JobID(epochTaskID(c.lead.epoch.Counter, c.nextJobID))
	j := c.buildJob(id, spec, c.node.Kernel().Now(), done)
	c.jobs[id] = j
	c.stats.JobsSubmitted.Inc()
	c.emitJob(trace.JobSubmit, id, 0, int64(len(spec.Stages)), int64(spec.ReplicaBudget))
	c.dispatchReady(j)
	return id, nil
}

// buildJob materializes job state from a validated spec. Topological
// order and the replica allocation are pure functions of the spec, so
// a failover successor reconstructs them identically.
func (c *Controller) buildJob(id JobID, spec JobSpec, submitted sim.Time, done func(JobResult)) *jobState {
	spec = spec.withDefaults()
	order, _ := TopoOrder(&spec)
	alloc := AllocateReplicas(&spec, order)
	extra := 0
	for _, k := range alloc {
		extra += k - 1
	}
	if extra > spec.ReplicaBudget {
		// Tripwire for the "replica budget never exceeded" invariant.
		c.violations = append(c.violations, fmt.Sprintf("job %d replica allocation %d exceeds budget %d", id, extra, spec.ReplicaBudget))
	}
	j := &jobState{
		id:        id,
		spec:      spec,
		submitted: submitted,
		order:     order,
		alloc:     alloc,
		stages:    make([]jobStage, len(spec.Stages)),
		done:      done,
	}
	for i := range j.stages {
		j.stages[i].status = StageWaiting
	}
	return j
}

// dispatchReady launches every stage whose dependencies have resolved,
// in topological order (deterministic: the order is a pure function of
// the spec). A stage whose dependency was abandoned is abandoned too —
// Validate's optional-closure rule guarantees it is optional.
func (c *Controller) dispatchReady(j *jobState) {
	for _, i := range j.order {
		if _, live := c.jobs[j.id]; !live {
			return // the job finished (or failed) mid-loop
		}
		st := &j.stages[i]
		if st.status != StageWaiting || st.backoff {
			continue
		}
		ready, abandoned := true, false
		for _, d := range j.spec.Stages[i].Deps {
			switch j.stages[d].status {
			case StageDone:
			case StageAbandoned:
				abandoned = true
			default:
				ready = false
			}
		}
		if !ready {
			continue
		}
		if abandoned {
			c.abandonStage(j, i)
			continue
		}
		c.launchStage(j, i)
	}
	c.checkJobDone(j)
}

// launchStage submits stage i as a dependable task. The dispatch
// carries the decided value of every predecessor, and its frame pays
// for their outputs' bytes; the result frame carries the stage's own
// output back, for the controller to forward.
func (c *Controller) launchStage(j *jobState, i int) {
	sp := &j.spec.Stages[i]
	st := &j.stages[i]
	st.status = StageRunning
	st.backoff = false
	binding := &StageBinding{Job: j.id, Stage: i}
	in := sp.InputBytes
	for _, d := range sp.Deps {
		binding.Inputs = append(binding.Inputs, j.stages[d].value)
		in += j.spec.Stages[d].OutputBytes
	}
	task := Task{
		Ops:         sp.Ops,
		InputBytes:  in,
		OutputBytes: sp.OutputBytes,
		Deadline:    j.spec.Deadline,
		Depend:      &DependabilityPolicy{Replicas: j.alloc[i], MaxRetries: j.spec.TaskRetries},
		Stage:       binding,
	}
	id, err := c.Submit(task, nil)
	if err != nil {
		// Submission refused (lease expired mid-job): treat like a
		// no-eligible-member stage failure and let backoff decide.
		st.taskID = 0
		c.onStageFailed(j, i, ReasonNoEligibleMember)
		return
	}
	// Submit never applies an outcome before returning (the fail-fast
	// deadline path defers by a tick), so the binding is always recorded
	// before the outcome can route back here.
	st.taskID = id
}

// onStageApplied routes an applied task outcome into the job engine.
// It is called from applyEntry — after the (task, epoch) ledger has
// enforced exactly-once — so a duplicate reaching this function is an
// invariant violation, not a normal dedupe.
func (c *Controller) onStageApplied(po ParkedOutcome) {
	if c.stopped {
		return
	}
	b := po.Task.Stage
	j, live := c.jobs[b.Job]
	if !live || b.Stage < 0 || b.Stage >= len(j.stages) {
		return // outcome for a job already finished elsewhere
	}
	st := &j.stages[b.Stage]
	if st.appliedTask != 0 && st.appliedTask == po.Task.ID {
		c.violations = append(c.violations, fmt.Sprintf(
			"job %d stage %d outcome applied twice (task %d)", b.Job, b.Stage, po.Task.ID))
		return
	}
	if st.status != StageRunning || st.taskID != po.Task.ID {
		return // outcome of a superseded stage attempt (restart raced it)
	}
	st.appliedTask = po.Task.ID
	st.taskID = 0
	if po.OK {
		st.status = StageDone
		st.value = po.Value
		c.emitJob(trace.StageDone, b.Job, b.Stage, 0, 0)
		c.dispatchReady(j)
		return
	}
	c.onStageFailed(j, b.Stage, po.Reason)
}

// onStageFailed is the job layer's retry decision, driven by the
// structured FailReason:
//
//   - deadline: the job can never complete — fail it now;
//   - no-eligible-member: the cloud may be forming or healing — wait
//     without consuming the stage budget (bounded by formingRetryCap);
//   - anything else (retries-exhausted, no-quorum): consume a stage
//     retry with exponential backoff; past the budget, abandon the
//     stage if optional (graceful degradation) or fail the job.
//
// Under WholeJobRestart every stage failure instead restarts the whole
// job — the naive baseline E15 measures against.
func (c *Controller) onStageFailed(j *jobState, i int, reason FailReason) {
	st := &j.stages[i]
	if reason == ReasonDeadline {
		st.status = StageFailed
		c.failJob(j, ReasonDeadline)
		return
	}
	if j.spec.WholeJobRestart {
		if j.restarts < jobRestarts {
			c.restartJob(j)
		} else {
			st.status = StageFailed
			c.failJob(j, ReasonStageFailed)
		}
		return
	}
	delay := retryBackoff
	if reason == ReasonNoEligibleMember && st.forming < formingRetryCap {
		st.forming++
		delay = 2 * retryBackoff
	} else {
		if st.retries >= j.spec.StageRetries {
			if j.spec.Stages[i].Optional {
				c.abandonStage(j, i)
				c.dispatchReady(j)
			} else {
				st.status = StageFailed
				c.failJob(j, ReasonStageFailed)
			}
			return
		}
		st.retries++
		c.stats.StageRetries.Inc()
		for r := 1; r < st.retries; r++ {
			delay *= 2
		}
	}
	st.status = StageWaiting
	st.backoff = true
	st.gen++
	gen := st.gen
	c.node.Kernel().After(delay, func() {
		jj, live := c.jobs[j.id]
		if !live || jj != j || c.stopped || st.gen != gen {
			return
		}
		st.backoff = false
		c.dispatchReady(j)
	})
}

// abandonStage gives up on an optional stage (or a stage downstream of
// one): the job will complete without its branch.
func (c *Controller) abandonStage(j *jobState, i int) {
	st := &j.stages[i]
	st.status = StageAbandoned
	st.gen++
	st.backoff = false
	c.stats.StagesAbandoned.Inc()
	c.emitJob(trace.StageAbandon, j.id, i, 0, 0)
}

// restartJob is the naive whole-job recovery: throw away every
// completed stage, cancel every running one, and start over. The
// thrown-away ops are the wasted work E15 quantifies.
func (c *Controller) restartJob(j *jobState) {
	j.restarts++
	c.stats.JobRestarts.Inc()
	for i := range j.stages {
		st := &j.stages[i]
		if st.status == StageDone {
			j.wasted += j.spec.Stages[i].Ops
			c.stats.WastedOps += j.spec.Stages[i].Ops
		}
		if st.status == StageRunning && st.taskID != 0 {
			c.cancelTask(st.taskID)
		}
		st.status = StageWaiting
		st.value = 0
		st.taskID = 0
		st.retries = 0
		st.forming = 0
		st.backoff = false
		st.gen++
	}
	c.emitJob(trace.JobRestart, j.id, 0, int64(j.restarts), 0)
	c.dispatchReady(j)
}

// failJob cancels everything still running and reports failure.
func (c *Controller) failJob(j *jobState, reason FailReason) {
	for i := range j.stages {
		st := &j.stages[i]
		st.gen++
		st.backoff = false
		if st.status == StageRunning {
			if st.taskID != 0 {
				c.cancelTask(st.taskID)
			}
			st.status = StageWaiting
			st.taskID = 0
		}
		if st.status == StageDone {
			// Completed work of a failed job bought nothing.
			j.wasted += j.spec.Stages[i].Ops
			c.stats.WastedOps += j.spec.Stages[i].Ops
		}
	}
	c.stats.JobsFailed.Inc()
	c.finishJob(j, c.jobResult(j, false, false, reason))
}

// checkJobDone completes the job once every stage is done or abandoned.
func (c *Controller) checkJobDone(j *jobState) {
	if _, live := c.jobs[j.id]; !live {
		return
	}
	partial := false
	for i := range j.stages {
		switch j.stages[i].status {
		case StageDone:
		case StageAbandoned:
			partial = true
		default:
			return
		}
	}
	c.stats.JobsCompleted.Inc()
	if partial {
		c.stats.JobsPartial.Inc()
	}
	c.finishJob(j, c.jobResult(j, true, partial, ReasonNone))
}

// jobResult assembles the submitter-facing report.
func (c *Controller) jobResult(j *jobState, ok, partial bool, reason FailReason) JobResult {
	out := JobResult{
		OK:        ok,
		Partial:   partial,
		Reason:    reason,
		Latency:   c.node.Kernel().Now() - j.submitted,
		Restarts:  j.restarts,
		WastedOps: j.wasted,
	}
	hasSucc := make([]bool, len(j.stages))
	for i := range j.spec.Stages {
		for _, d := range j.spec.Stages[i].Deps {
			hasSucc[d] = true
		}
	}
	var sinks []uint64
	for i := range j.stages {
		st := &j.stages[i]
		out.ExtraReplicas += j.alloc[i] - 1
		out.Stages = append(out.Stages, StageOutcome{Status: st.status})
		if !hasSucc[i] && st.status == StageDone {
			sinks = append(sinks, st.value)
		}
	}
	out.Value = StageDigest(j.id, -1, 0, sinks)
	return out
}

// finishJob retires the job and fires the submitter callback.
func (c *Controller) finishJob(j *jobState, res JobResult) {
	delete(c.jobs, j.id)
	c.emitJob(trace.JobFinish, j.id, 0, bit(res.OK), int64(res.Latency))
	if j.done != nil {
		j.done(res)
	}
}

// cancelTask kills an in-flight task without firing any outcome: the
// job layer superseded it (whole-job restart, job failure). Late
// results for the ID are ignored by onResult; queue reservations are
// released so member load book-keeping stays truthful.
func (c *Controller) cancelTask(id TaskID) {
	ts, live := c.tasks[id]
	if !live {
		return
	}
	c.releaseReplicas(ts)
	delete(c.tasks, id)
}

// failAllJobs fails every in-flight job (controller Stop).
func (c *Controller) failAllJobs(reason FailReason) {
	for _, id := range sortedKeys(c.jobs) {
		if j, live := c.jobs[id]; live {
			c.failJob(j, reason)
		}
	}
}

// exportJobs snapshots every in-flight job for checkpoints and merge
// messages, in ascending job-ID order.
func (c *Controller) exportJobs() []JobCheckpoint {
	if len(c.jobs) == 0 {
		return nil
	}
	ids := sortedKeys(c.jobs)
	out := make([]JobCheckpoint, 0, len(ids))
	for _, id := range ids {
		j := c.jobs[id]
		jc := JobCheckpoint{
			ID:        j.id,
			Submitted: j.submitted,
			Restarts:  j.restarts,
			Wasted:    j.wasted,
			Spec:      j.spec,
		}
		for i := range j.stages {
			st := &j.stages[i]
			jc.Stages = append(jc.Stages, StageCheckpoint{
				Status:  st.status,
				Value:   st.value,
				Retries: st.retries,
				TaskID:  st.taskID,
			})
		}
		out = append(out, jc)
	}
	return out
}

// restoreJob rebuilds job state from a checkpoint row (no callback —
// closures do not survive replication).
func (c *Controller) restoreJob(jc JobCheckpoint) {
	j := c.buildJob(jc.ID, jc.Spec, jc.Submitted, nil)
	j.restarts = jc.Restarts
	j.wasted = jc.Wasted
	for i := range jc.Stages {
		if i >= len(j.stages) {
			break
		}
		st := &j.stages[i]
		sc := jc.Stages[i]
		st.status = sc.Status
		st.value = sc.Value
		st.retries = sc.Retries
		st.taskID = sc.TaskID
	}
	c.jobs[jc.ID] = j
}

// dagResume reconciles restored/merged job state against the live task
// table: a stage recorded as running whose task no longer exists (its
// outcome was applied or parked on the far side, or the task was lost
// with the old controller) is reset and re-dispatched. Re-executing a
// stage is safe — outcomes of superseded attempts are ignored by
// taskID match and values are deterministic digests.
func (c *Controller) dagResume() {
	for _, id := range sortedKeys(c.jobs) {
		j, live := c.jobs[id]
		if !live {
			continue
		}
		for i := range j.stages {
			st := &j.stages[i]
			st.backoff = false // timers do not survive restore
			st.gen++
			if st.status == StageRunning {
				if _, taskLive := c.tasks[st.taskID]; st.taskID == 0 || !taskLive {
					st.status = StageWaiting
					st.taskID = 0
				}
			}
		}
		c.dispatchReady(j)
	}
}
