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
// its submitter callback and the successor runs without the config's
// hooks (dwell estimator, join gate, trust engine, trace) until its
// deployment re-installs them; completions still count in the shared
// Stats, which is what the E11 experiment measures. Work executed by the
// old assignee after the last checkpoint is re-executed — the cost of
// checkpoint staleness, bounded by checkpointPeriod.
package vcloud

import (
	"fmt"
	"sort"

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
	Res  Resources
}

// TaskCheckpoint is one in-flight task inside a checkpoint: everything
// the standby needs to resume the task from its last known progress.
type TaskCheckpoint struct {
	Task         Task
	Client       vnet.Addr
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
	TaskID  TaskID
	Holders []vnet.Addr
}

// JobCheckpoint is one in-flight DAG job inside a checkpoint: the spec
// plus per-stage progress, so a successor resumes the job from its
// completed stages instead of restarting it.
type JobCheckpoint struct {
	ID        JobID
	Client    vnet.Addr
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
	// Standby is the member this checkpoint designates.
	Standby vnet.Addr
	// Seq increases with every checkpoint sent.
	Seq uint64
	// NextID continues the task-ID sequence without collisions.
	NextID TaskID
	// NextJobID continues the job-ID sequence without collisions.
	NextJobID TaskID
	// Emergency carries the management-plane flag across failover.
	Emergency bool
	// Depend is the controller's default dependability policy (nil: the
	// built-in default), so restored tasks stay replicated.
	Depend *DependabilityPolicy
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
	ck := Checkpoint{
		Controller: c.node.Addr(),
		Standby:    c.standby,
		Seq:        c.ckptSeq,
		NextID:     c.nextID,
		NextJobID:  c.nextJobID,
		Emergency:  c.emergency,
		Depend:     c.cfg.Depend,
		Epoch:      c.epoch,
		Applied:    c.exportLedger(),
		Parked:     c.exportParked(),
		Armed:      c.exportArmed(),
		Jobs:       c.exportJobs(),
	}
	for _, a := range c.Members() {
		ck.Members = append(ck.Members, MemberSnapshot{Addr: a, Res: c.members[a].res})
	}
	ids := make([]TaskID, 0, len(c.tasks))
	for id := range c.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts := c.tasks[id]
		ck.Tasks = append(ck.Tasks, TaskCheckpoint{
			Task:         ts.task,
			Client:       ts.client,
			RemainingOps: ts.remainingOps,
			Retries:      ts.retries,
			Handovers:    ts.handovers,
			Submitted:    ts.submitted,
		})
	}
	return ck
}

// refreshStandby (re)designates the checkpoint target: the lowest-address
// fresh member, chosen deterministically so equal seeds replay equal
// failovers. Returns true when a standby exists. Losing the last
// eligible member leaves the cloud standby-less — one controller crash
// away from losing the task table — so that transition is surfaced via
// Stats.StandbyLost and a trace event instead of silently no-oping.
func (c *Controller) refreshStandby(now sim.Time) bool {
	best := vnet.Addr(-1)
	for a, m := range c.members {
		if now-m.lastSeen > memberTTL {
			continue
		}
		if best < 0 || a < best {
			best = a
		}
	}
	if best < 0 && c.standby >= 0 {
		c.stats.StandbyLost.Inc()
		c.cfg.Trace.Emit(now, trace.CatCloud, int32(c.node.Addr()),
			"standby lost: no eligible member to replicate checkpoints to")
	}
	c.standby = best
	return best >= 0
}

// sendCheckpoint replicates current state to the standby. Under fencing
// the standby becomes "armed" from the first checkpoint it is sent: it
// holds state it could promote from, so finished outcomes park until it
// acknowledges (see merge.go).
func (c *Controller) sendCheckpoint(now sim.Time) {
	c.ckptSeq++
	c.lastCkpt = now
	if c.cfg.Fencing {
		if _, armed := c.armed[c.standby]; !armed {
			// The lease grace period for this standby starts at arming.
			// Arm before building the checkpoint so its Armed list names
			// the recipient too (a third sibling must learn of it).
			c.armed[c.standby] = armedStandby{at: now}
		}
	}
	data := EncodeCheckpoint(c.Checkpoint())
	msg := c.node.NewMessage(c.standby, kindCkpt, len(data), 1, ckptMsg{Data: data})
	c.node.SendTo(c.standby, msg)
}

// RestoreController promotes node into a controller seeded from the
// checkpoint: membership is restored as-if freshly heard, the task-ID
// sequence continues, and every checkpointed task is reassigned from its
// last known RemainingOps. The successor always keeps replicating to a
// standby of its own, and is fenced exactly when the checkpoint is. The
// new controller advertises immediately so members reattach without
// waiting out an advertisement period.
func RestoreController(node *vnet.Node, ckpt Checkpoint, stats *Stats) (*Controller, error) {
	if node == nil {
		return nil, fmt.Errorf("vcloud: node must not be nil")
	}
	fenced := !ckpt.Epoch.Zero()
	c, err := NewController(node, ControllerConfig{Failover: true, Fencing: fenced, Depend: ckpt.Depend}, stats)
	if err != nil {
		return nil, err
	}
	now := node.Kernel().Now()
	self := node.Addr()
	for _, ms := range ckpt.Members {
		if ms.Addr == self || ms.Addr == ckpt.Controller {
			continue // the promoted node and the dead coordinator are not workers
		}
		// Checkpointed membership is not live contact: seed each member at
		// the very edge of memberTTL so resumed tasks can dispatch to it
		// right away, but only members that answer the promotion
		// advertisement (the immediate advertise below triggers a re-join)
		// stay past the first tick. Members behind a partition age out
		// instead of being chosen as the armed standby — arming an
		// unreachable standby would park every outcome forever.
		c.members[ms.Addr] = &memberInfo{res: ms.Res, lastSeen: now - memberTTL}
	}
	c.nextID = ckpt.NextID
	c.nextJobID = ckpt.NextJobID
	c.emergency = ckpt.Emergency
	if fenced {
		// Promote at a strictly higher counter than any epoch this node
		// has witnessed, so the predecessor's dispatches are fenced off.
		c.epoch = NextEpoch(ckpt.Epoch.Counter, self)
		// Seed the exactly-once ledger: outcomes the predecessor applied,
		// plus the parked outcomes this (acknowledged) checkpoint
		// licensed it to apply — resuming those would risk applying them
		// twice, so they count as applied (at-most-once under partition).
		for _, ar := range ckpt.Applied {
			c.recordApplied(ar.ID, ar.Epoch)
		}
		for _, po := range ckpt.Parked {
			c.recordApplied(po.Task.ID, ckpt.Epoch.Counter)
		}
		// Sibling standbys of the dead predecessor hold this same task
		// lineage; until each disarms (or promotes and loses the epoch
		// battle), our outcomes must park like the predecessor's did.
		c.inheritArmed(ckpt.Armed, now)
	}
	c.cfg.Trace.Emit(now, trace.CatCloud, int32(self),
		"promoted to controller (ckpt seq %d from %d: %d members, %d tasks, %d jobs, epoch %v)",
		ckpt.Seq, ckpt.Controller, len(ckpt.Members), len(ckpt.Tasks), len(ckpt.Jobs), c.epoch)
	// Restore jobs before relaunching tasks: a relaunched stage task can
	// finish synchronously and must find its job row to route into.
	for _, jc := range ckpt.Jobs {
		c.restoreJob(jc)
		stats.JobsResumed.Inc()
	}
	for _, tc := range ckpt.Tasks {
		stats.Resumed.Inc()
		c.resume(tc)
	}
	// Stages whose tasks died with the predecessor (or were applied on
	// its side) go back to waiting and re-dispatch under the new epoch.
	c.dagResume()
	c.advertise()
	return c, nil
}

// resume re-enters a checkpointed task into the task table and
// dispatches it afresh from its last known progress — on promotion and
// when a merge adopts a rival's orphan alike.
func (c *Controller) resume(tc TaskCheckpoint) {
	ts := &taskState{
		task:         tc.Task,
		client:       tc.Client,
		remainingOps: tc.RemainingOps,
		retries:      tc.Retries,
		handovers:    tc.Handovers,
		submitted:    tc.Submitted,
		policy:       c.effectivePolicy(tc.Task),
	}
	c.tasks[tc.Task.ID] = ts
	c.dispatchReplicas(ts, ts.policy.Replicas)
}
