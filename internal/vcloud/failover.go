// Controller failover: the dependability mechanism that lets a vehicular
// cloud survive the loss of its coordinator (§V.A — the management plane
// must outlive any single node). The running controller periodically
// replicates a checkpoint — its membership snapshot plus the in-flight
// task table — to a designated standby member; when the controller's
// advertisements go silent past failoverTTL, the standby promotes itself
// to controller, re-advertises, and resumes every checkpointed task from
// its last known RemainingOps instead of losing it.
//
// A checkpoint carries leadership state, not controller configuration:
// closures cannot cross the (simulated) wire, so a restored task loses
// its submitter callback; completions still count in the shared Stats,
// which is what the E11 experiment measures. The successor's
// configuration comes from its deployment (Deployment.startController).
// Work executed by the old assignee after the last checkpoint is
// re-executed — the cost of checkpoint staleness, bounded by
// checkpointPeriod.
package vcloud

import (
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vnet"
)

// Failover timings, fixed like the controller's own (see advPeriod).
const (
	// checkpointPeriod is the replication interval.
	checkpointPeriod = 2 * advPeriod
	// failoverTTL is how long a standby tolerates advertisement silence
	// before promoting itself, and how long a fenced controller tolerates
	// an armed standby's silence before its leadership lease expires.
	failoverTTL = 4 * advPeriod
)

// MemberSnapshot is one membership row inside a checkpoint.
type MemberSnapshot struct {
	Addr vnet.Addr
	CPU  float64
}

// TaskCheckpoint is one in-flight task inside a checkpoint: everything
// the standby needs to resume the task from its last known progress.
type TaskCheckpoint struct {
	Task         Task
	RemainingOps float64
	Retries      int
	Handovers    int
	Submitted    sim.Time
}

// StageCheckpoint is one stage row inside a JobCheckpoint. Topological
// order and the replica allocation are NOT checkpointed — they are pure
// functions of the spec, recomputed identically on restore.
type StageCheckpoint struct {
	Status  StageStatus
	Value   uint64
	Retries int
	// TaskID names the live underlying task of a running stage; a
	// successor whose task table lacks it resets the stage to waiting
	// and re-dispatches (see dagResume).
	TaskID TaskID
}

// JobCheckpoint is one in-flight DAG job inside a checkpoint: the spec
// plus per-stage progress, so a successor resumes the job from its
// completed stages instead of restarting it.
type JobCheckpoint struct {
	ID        JobID
	Submitted sim.Time
	Restarts  int
	Wasted    float64
	Spec      JobSpec
	Stages    []StageCheckpoint
}

// Checkpoint is the replicated controller state — the Snapshot()
// membership view extended with the in-flight task table and the
// counters a successor needs (§V.A "recover the snapshot of the
// topology", made crash-proof). It is pure data: the standby promotes
// from it, and an abdicating controller ships it whole to the rival it
// merges into (see merge.go).
type Checkpoint struct {
	// Controller is the checkpointing controller's address.
	Controller vnet.Addr
	// Seq increases with every checkpoint sent.
	Seq uint64
	// NextID continues the task-ID sequence without collisions.
	NextID TaskID
	// NextJobID continues the job-ID sequence without collisions.
	NextJobID TaskID
	// Emergency carries the management-plane flag across failover.
	Emergency bool
	// Members is the membership snapshot in ascending address order.
	Members []MemberSnapshot
	// Tasks is the in-flight task table in ascending task-ID order.
	Tasks []TaskCheckpoint
	// Epoch is the checkpointing controller's fencing token. It is zero
	// exactly when the controller is unfenced; a fenced successor
	// promotes itself at a strictly higher counter.
	Epoch Epoch
	// Applied is the (task, epoch) ledger of already-applied outcomes;
	// a successor seeds its own ledger from it so no outcome is applied
	// twice across epochs.
	Applied []AppliedRecord
	// Parked holds outcomes finished but not yet applied (apply-after-ack,
	// see merge.go). Acknowledging this checkpoint licenses the
	// controller to apply them, so a successor promoting from it must
	// treat them as applied — they seed the ledger, not the task table.
	Parked []ParkedOutcome
	// Armed lists every standby the controller has replicated state to
	// that has not disarmed — each could promote a sibling successor
	// holding this same task table. A successor inherits these arming
	// obligations (minus itself): it parks its own outcomes until each
	// sibling disarms or the epoch battle resolves, so two sibling
	// successors never both apply one task's outcome.
	Armed []vnet.Addr
	// Jobs is the in-flight DAG job table in ascending job-ID order; a
	// successor resumes each job from its checkpointed stage progress.
	Jobs []JobCheckpoint
}

// ckptMsg carries an encoded checkpoint, to a standby or, in a merge, to
// the rival an abdicating controller defers to: the receiver decodes and
// validates before it acts on it, so a truncated or corrupted checkpoint
// is rejected with an error instead of promoting or merging garbage.
type ckptMsg struct {
	Data []byte
}

// Checkpoint builds the controller's current replicable state.
func (c *Controller) Checkpoint() Checkpoint {
	ck := c.lead.snapshot()
	ck.Controller = c.node.Addr()
	ck.NextID, ck.NextJobID = c.nextID, c.nextJobID
	ck.Emergency = c.emergency
	ck.Jobs = c.exportJobs()
	for _, m := range c.members {
		ck.Members = append(ck.Members, MemberSnapshot{Addr: m.addr, CPU: m.cpu})
	}
	for _, id := range sortedKeys(c.tasks) {
		ts := c.tasks[id]
		ck.Tasks = append(ck.Tasks, TaskCheckpoint{
			Task:         ts.task,
			RemainingOps: ts.remainingOps,
			Retries:      ts.retries,
			Handovers:    ts.handovers,
			Submitted:    ts.submitted,
		})
	}
	return ck
}

// standbyCandidate is the checkpoint target the controller proposes:
// the lowest-address fresh member (-1 when none), chosen
// deterministically so equal seeds replay equal failovers.
func (c *Controller) standbyCandidate(now sim.Time) vnet.Addr {
	for _, m := range c.members {
		if now-m.lastSeen <= memberTTL {
			return m.addr
		}
	}
	return -1
}

// sendCheckpoint replicates current state to the standby.
func (c *Controller) sendCheckpoint() {
	data := EncodeCheckpoint(c.Checkpoint())
	to := c.lead.standby
	c.node.SendTo(to, c.node.NewMessage(to, kindCkpt, len(data), 1, ckptMsg{Data: data}))
}

// restore seeds a just-started failover successor from the standby's
// checkpoint: membership is restored as-if freshly heard, the task-ID
// sequence continues, and every checkpointed task is reassigned from its
// last known RemainingOps. The successor keeps replicating to a standby
// of its own (its deployment started it fenced exactly when the
// checkpoint is), and advertises immediately so members reattach without
// waiting out an advertisement period.
func (c *Controller) restore(ckpt *Checkpoint) {
	now := c.node.Kernel().Now()
	// Checkpointed membership is not live contact: seed each member at
	// the very edge of memberTTL so resumed tasks can dispatch to it right
	// away, but only members that answer the promotion advertisement (the
	// immediate advertise below triggers a re-join) stay past the first
	// tick. Members behind a partition age out instead of being chosen as
	// the armed standby — arming an unreachable standby would park every
	// outcome forever.
	c.adoptMembers(ckpt, now-memberTTL)
	c.nextID = ckpt.NextID
	c.nextJobID = ckpt.NextJobID
	c.emergency = c.emergency || ckpt.Emergency
	// The exactly-once ledger and the sibling standbys' arming carry
	// over, and the successor promotes past the predecessor's epoch.
	c.lead.seed(now, ckpt, true)
	c.lead.mintPast(ckpt.Epoch)
	c.emit(trace.Promote, 0, int64(ckpt.Controller), int64(ckpt.Seq))
	// Restore jobs before relaunching tasks: a relaunched stage task can
	// finish synchronously and must find its job row to route into.
	for _, jc := range ckpt.Jobs {
		c.restoreJob(jc)
		c.stats.JobsResumed.Inc()
	}
	for _, tc := range ckpt.Tasks {
		c.stats.Resumed.Inc()
		c.resume(tc)
	}
	// Stages whose tasks died with the predecessor (or were applied on
	// its side) go back to waiting and re-dispatch under the new epoch.
	c.dagResume()
	c.advertise()
}

// decodeCkpt decodes a checkpoint message; a corrupt one is counted in
// CkptRejected and dropped.
func decodeCkpt(msg vnet.Message, stats *Stats) (Checkpoint, bool) {
	cm, ok := msg.Payload.(ckptMsg)
	if !ok {
		return Checkpoint{}, false
	}
	ck, err := DecodeCheckpoint(cm.Data)
	if err != nil {
		stats.CkptRejected.Inc()
		return Checkpoint{}, false
	}
	return ck, true
}

// adoptMembers enters a checkpoint's workers as last heard at seen. This
// node and the checkpointing controller are not workers, and a member
// already in the table keeps its row.
func (c *Controller) adoptMembers(ck *Checkpoint, seen sim.Time) {
	for _, ms := range ck.Members {
		if ms.Addr == c.node.Addr() || ms.Addr == ck.Controller {
			continue
		}
		if m, added := c.members.add(ms.Addr); added {
			m.cpu, m.lastSeen = ms.CPU, seen
		}
	}
}

// resume re-enters a checkpointed task into the task table and
// dispatches it afresh from its last known progress — on promotion and
// when a merge adopts a rival's orphan alike.
func (c *Controller) resume(tc TaskCheckpoint) {
	ts := &taskState{
		task:         tc.Task,
		remainingOps: tc.RemainingOps,
		retries:      tc.Retries,
		handovers:    tc.Handovers,
		submitted:    tc.Submitted,
		policy:       c.effectivePolicy(tc.Task),
	}
	c.tasks[tc.Task.ID] = ts
	c.dispatchReplicas(ts, ts.policy.Replicas)
}
