// Split-brain-safe leadership, the message side: acks, rival
// advertisements and checkpoints, abdication and the partition-heal
// merge. Every decision they carry out is the leadership core's (see
// leadership.go).
package vcloud

import (
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vnet"
)

// Fencing protocol message kinds.
const (
	kindMerge   = "vc.merge"
	kindCkptAck = "vc.ckptack"
)

// ackMsg acknowledges a replicated checkpoint. Disarm releases the
// sender from the controller's armed set (the member discarded its
// checkpoint and can no longer promote from it). Known carries the
// highest epoch the acker has witnessed, so a stale controller learns
// of its deposition even from its own standby.
type ackMsg struct {
	Seq    uint64
	Disarm bool
	Known  Epoch
}

// ParkedOutcome is a finished-but-unapplied task outcome riding in a
// checkpoint (replicated or merged): everything needed to apply the
// outcome except the submitter callback, which cannot cross the wire.
// Seq is the checkpoint sequence that first carries it — the outcome is
// applied once the armed standbys have acked that sequence.
type ParkedOutcome struct {
	Task      Task
	OK        bool
	Reason    FailReason
	Value     uint64
	Voters    []vnet.Addr
	Retries   int
	Handovers int
	Submitted sim.Time
	Seq       uint64
}

// parkedEntry is a parked outcome plus the local-only context needed to
// apply it faithfully (callback, replica count).
type parkedEntry struct {
	po       ParkedOutcome
	done     func(TaskResult)
	replicas int
}

// Fenced reports whether epoch fencing is active.
func (c *Controller) Fenced() bool { return c.lead.fenced() }

// StandbyAddr returns the designated failover standby (-1 when none).
func (c *Controller) StandbyAddr() vnet.Addr { return c.lead.standby }

// applyEntry makes an outcome permanent: ledger entry, stats, the
// Apply trace event, and the submitter callback. Exactly-once
// is enforced here — a duplicate id is counted and dropped. A success
// parked past its task's deadline is applied as the deadline failure a
// late vote gets (decideVote), stage outcomes included.
func (c *Controller) applyEntry(e *parkedEntry) {
	id := e.po.Task.ID
	now := c.node.Kernel().Now()
	if !c.lead.record(id) {
		c.stats.Deduped.Inc()
		c.emit(trace.Dedup, id, 0, 0)
		return
	}
	if d := e.po.Task.Deadline; e.po.OK && d > 0 && now > d {
		e.po.OK, e.po.Reason, e.po.Value, e.po.Voters = false, ReasonDeadline, 0, nil
	}
	lat := now - e.po.Submitted
	c.emit(trace.Apply, id, bit(e.po.OK), 0)
	if e.po.OK {
		c.stats.Completed.Inc()
		c.stats.Latency.ObserveDuration(lat)
	} else {
		c.stats.Failed.Inc()
	}
	if e.done != nil {
		e.done(TaskResult{
			ID:        id,
			OK:        e.po.OK,
			Latency:   lat,
			Handovers: e.po.Handovers,
			Retries:   e.po.Retries,
			Reason:    e.po.Reason,
			Value:     e.po.Value,
			Replicas:  e.replicas,
			Voters:    e.po.Voters,
		})
	}
	// Stage outcomes route to the DAG scheduler from here — after the
	// ledger dedup — so a stage can never advance its job twice even
	// when the same outcome arrives via retry, merge and checkpoint.
	if e.po.Task.Stage != nil {
		c.onStageApplied(e.po)
	}
}

// onCkptAck processes a standby's checkpoint acknowledgement.
func (c *Controller) onCkptAck(msg vnet.Message, _ vnet.Addr) {
	am, ok := msg.Payload.(ackMsg)
	if !ok {
		return
	}
	rival, ready := c.lead.onAck(c.node.Kernel().Now(), msg.Origin, am)
	if !rival.Zero() {
		// The acker has witnessed a superseding epoch: this controller was
		// deposed while isolated. Abdicate toward the epoch's claimant.
		c.abdicateTo(rival.Claimant, rival)
		return
	}
	for _, e := range ready {
		c.applyEntry(e)
	}
}

// onRivalAdv watches other controllers' advertisements: hearing a rival
// whose epoch supersedes ours means a partition healed (or a standby
// wrongly promoted) and exactly one of us must stand down.
func (c *Controller) onRivalAdv(msg vnet.Message, _ vnet.Addr) {
	adv, ok := msg.Payload.(advMsg)
	if !ok || adv.Controller == c.node.Addr() {
		return
	}
	if c.lead.deposedBy(adv.Epoch) {
		c.abdicateTo(adv.Controller, adv.Epoch)
	}
	// Otherwise: the rival defers to us and will abdicate when it hears
	// our advertisement; its merge message completes the reconciliation.
}

// onRivalCkpt answers checkpoints wrongly replicated to this node by a
// rival controller that still believes we are its member: refuse the
// standby role with a disarm-ack so the rival's parked outcomes do not
// stall forever, and let the epoch ride along to trigger its abdication.
func (c *Controller) onRivalCkpt(msg vnet.Message, _ vnet.Addr) {
	ck, ok := decodeCkpt(msg, c.stats)
	if !ok {
		return
	}
	sendAcks(c.node, disarmAck(msg.Origin, ck.Seq, c.lead.epoch))
}

// sendAcks sends checkpoint acknowledgements, in order.
func sendAcks(node *vnet.Node, acks ...ackTo) {
	for _, a := range acks {
		node.SendTo(a.ctl, node.NewMessage(a.ctl, kindCkptAck, 64, 1, a.ack))
	}
}

// abdicateTo stands the controller down in favor of a superseding
// rival: ship its encoded checkpoint in a merge message for
// anti-entropy, then halt, and hand the node back to its deployment
// (see Deployment.retire) — leadership returns to the rival
// deterministically.
func (c *Controller) abdicateTo(target vnet.Addr, rival Epoch) {
	c.stats.Abdications.Inc()
	c.emit(trace.Abdicate, 0, int64(target), int64(rival.Counter))
	data := EncodeCheckpoint(c.Checkpoint())
	c.node.SendTo(target, c.node.NewMessage(target, kindMerge, len(data), 1, ckptMsg{Data: data}))
	c.Crash() // silent halt: pending task state was shipped in the merge
	if c.d != nil {
		c.d.retire(c)
	}
}

// onMerge reconciles an abdicated rival's state into this controller:
// membership union, ledger merge, orphaned-task adoption, parked-outcome
// application (deduped to exactly-once), then an epoch bump past both
// generations so members re-accept leadership under a fresh counter. A
// payload that does not decode is counted in CkptRejected and changes
// nothing.
func (c *Controller) onMerge(msg vnet.Message, _ vnet.Addr) {
	mm, ok := decodeCkpt(msg, c.stats)
	if !ok {
		return
	}
	c.stats.Merges.Inc()
	now := c.node.Kernel().Now()
	c.adoptMembers(&mm, now)
	// The abdicator's armed standbys hold its state and may still
	// promote from it; inherit the obligation before deciding whether
	// its parked outcomes (and ours) can apply directly.
	c.lead.seed(now, &mm, false)
	// Adopt the rival's in-flight DAG jobs before its tasks, so adopted
	// stage tasks (and parked stage outcomes below) find their job rows.
	for _, jc := range mm.Jobs {
		if _, live := c.jobs[jc.ID]; live {
			continue // shared checkpoint lineage: we already run this job
		}
		c.restoreJob(jc)
	}
	for _, tc := range mm.Tasks {
		id := tc.Task.ID
		if c.lead.settled(id) {
			continue // outcome already applied somewhere: do not re-run
		}
		if _, live := c.tasks[id]; live {
			continue // we already run our own copy (shared checkpoint lineage)
		}
		c.stats.Adopted.Inc()
		c.resume(tc)
	}
	for _, po := range mm.Parked {
		id := po.Task.ID
		if c.lead.settled(id) {
			c.stats.Deduped.Inc()
			continue
		}
		// The rival finished this task but never applied it; apply here
		// (the submitter callback could not cross the wire). If we run
		// our own copy of the task, retire it — its outcome is decided.
		c.cancelTask(id)
		c.settle(&parkedEntry{po: po, replicas: len(po.Voters)})
	}
	// Re-drive adopted DAGs: stages whose tasks died with the abdicator
	// go back to Waiting and are re-dispatched under the merged epoch.
	c.dagResume()
	// Bump past both generations, then re-advertise.
	c.lead.mintPast(mm.Epoch)
	c.emit(trace.Merge, 0, int64(msg.Origin), int64(mm.Epoch.Counter))
	// Partition heal is when storage placements are most skewed: both
	// sides churned independently. Repair under the merged epoch — the
	// anti-entropy pass for data, mirroring the task-table merge above.
	c.repairStorage()
	c.advertise()
}
