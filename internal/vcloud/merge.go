// Split-brain-safe leadership: epoch fencing and partition-heal merge
// (ISSUE 3 tentpole). PR 1's failover only survives crashes — a radio
// partition that separates the controller from its standby while both
// keep reachable workers yields two live controllers double-dispatching
// the same tasks. With ControllerConfig.Fencing on:
//
//   - Every advertisement, checkpoint, dispatch and result carries the
//     controller's Epoch; workers and the replica manager reject
//     stale-epoch messages, and a controller that hears a rival with a
//     superseding epoch abdicates back to member deterministically.
//
//   - Outcomes are applied **after acknowledgement**: once a standby has
//     ever been sent a checkpoint it is "armed", and the controller
//     parks finished outcomes until the armed standbys have acked a
//     checkpoint that carries them. A standby that promotes from an
//     acked checkpoint treats its Parked entries as already applied
//     (they seed the ledger), so the outcome is applied on exactly one
//     side of a partition; under partition an unacked parked outcome may
//     be applied on neither (at-most-once — the safe direction for the
//     "no outcome applied twice" invariant).
//
//   - On partition heal the abdicating controller ships its Checkpoint
//     in a merge message: the survivor unions membership, merges the
//     (task, epoch) applied ledger, re-adopts orphaned in-flight tasks,
//     applies still-unapplied parked outcomes (deduped against the
//     ledger), then bumps its epoch past the rival's and re-advertises
//     so members re-accept under a fresh counter.
//
// Liveness tradeoff: an armed standby that dies without disarming
// stalls parked applies and (after failoverTTL without an ack) makes
// the controller refuse new submissions — safety over availability, the
// CP side of the partition tradeoff. The stall clears when the standby
// recovers (it either disarm-acks or promotes and the epoch battle
// resolves it).
package vcloud

import (
	"sort"

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
	Client    vnet.Addr
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
func (c *Controller) Fenced() bool { return c.cfg.Fencing }

// StandbyAddr returns the designated failover standby (-1 when none).
func (c *Controller) StandbyAddr() vnet.Addr { return c.standby }

// armedStandby is the controller's book-keeping for one standby it has
// replicated a checkpoint to: the highest sequence the standby
// acknowledged and when it was last heard from (initially: armed).
type armedStandby struct {
	acked uint64
	at    sim.Time
}

// leaseExpired reports whether any armed standby has gone silent for
// longer than failoverTTL — the point at which that standby may already
// have promoted from its checkpoint copy, so accepting new work could
// double-dispatch it. Every armed standby must stay in contact: a
// controller that re-designates a reachable standby mid-partition is
// still fenced by the silent one on the far side.
func (c *Controller) leaseExpired(now sim.Time) bool {
	if !c.cfg.Fencing {
		return false
	}
	for _, as := range c.armed {
		if now-as.at > failoverTTL {
			return true
		}
	}
	return false
}

// recordApplied enters id into the (task, epoch) applied ledger.
// Returns false when the id is already present — the caller must not
// apply the outcome a second time.
func (c *Controller) recordApplied(id TaskID, epoch uint64) bool {
	if _, dup := c.applied[id]; dup {
		return false
	}
	c.applied[id] = epoch
	c.appliedOrder = append(c.appliedOrder, id)
	// Evict the oldest entries beyond the cap: only recently applied
	// tasks can still be in flight on a stale checkpoint or rival.
	for len(c.appliedOrder) > appliedLedgerCap {
		delete(c.applied, c.appliedOrder[0])
		c.appliedOrder = c.appliedOrder[1:]
	}
	return true
}

// exportLedger snapshots the applied ledger in insertion order.
func (c *Controller) exportLedger() []AppliedRecord {
	out := make([]AppliedRecord, 0, len(c.appliedOrder))
	for _, id := range c.appliedOrder {
		out = append(out, AppliedRecord{ID: id, Epoch: c.applied[id]})
	}
	return out
}

// exportArmed snapshots the armed-standby set in address order.
func (c *Controller) exportArmed() []vnet.Addr {
	out := make([]vnet.Addr, 0, len(c.armed))
	for a := range c.armed {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// inheritArmed adopts arming obligations from a checkpoint or merge:
// every listed standby (except this node) may hold replicated state of
// the same task lineage and promote a sibling successor, so outcomes
// must park until it disarms. The lease clock restarts at adoption —
// the sibling gets failoverTTL to hear our advertisement and disarm.
func (c *Controller) inheritArmed(armed []vnet.Addr, now sim.Time) {
	for _, a := range armed {
		if a == c.node.Addr() {
			continue
		}
		if _, known := c.armed[a]; !known {
			c.armed[a] = armedStandby{at: now}
		}
	}
}

// exportParked snapshots the parked outcomes for a checkpoint or merge.
func (c *Controller) exportParked() []ParkedOutcome {
	out := make([]ParkedOutcome, 0, len(c.parked))
	for _, e := range c.parked {
		out = append(out, e.po)
	}
	return out
}

// applyEntry makes an outcome permanent: ledger entry, stats, the
// OnApply hook, and the submitter callback. Exactly-once
// is enforced here — a duplicate id is counted and dropped.
func (c *Controller) applyEntry(e *parkedEntry) {
	id := e.po.Task.ID
	if c.cfg.Fencing && !c.recordApplied(id, c.epoch.Counter) {
		c.stats.Deduped.Inc()
		c.cfg.Trace.Emit(c.node.Kernel().Now(), trace.CatCloud, int32(c.node.Addr()),
			"task %d outcome deduped (already applied)", id)
		return
	}
	lat := c.node.Kernel().Now() - e.po.Submitted
	if c.cfg.OnApply != nil {
		c.cfg.OnApply(id, c.epoch.Counter, e.po.OK)
	}
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

// tryFlushParked applies every parked outcome whose carrying checkpoint
// has been acknowledged by all armed standbys (or all of them, when no
// standby is armed — nobody can promote an unacked copy).
func (c *Controller) tryFlushParked() {
	if len(c.parked) == 0 {
		return
	}
	minAck := ^uint64(0)
	for _, as := range c.armed {
		if as.acked < minAck {
			minAck = as.acked
		}
	}
	n := 0
	for _, e := range c.parked {
		if e.po.Seq > minAck {
			break // parked is in seq order; the rest are newer
		}
		c.applyEntry(e)
		n++
	}
	c.parked = c.parked[n:]
}

// onCkptAck processes a standby's checkpoint acknowledgement.
func (c *Controller) onCkptAck(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	am, ok := msg.Payload.(ackMsg)
	if !ok {
		return
	}
	// The acker has witnessed a superseding epoch: this controller was
	// deposed while isolated. Abdicate toward the epoch's claimant.
	if c.epoch.Defers(am.Known) {
		c.abdicateTo(am.Known.Claimant, am.Known)
		return
	}
	as, armed := c.armed[msg.Origin]
	if !armed {
		return // never armed (or already disarmed): stale ack
	}
	if am.Disarm {
		delete(c.armed, msg.Origin)
	} else {
		if am.Seq > as.acked {
			as.acked = am.Seq
		}
		as.at = c.node.Kernel().Now()
		c.armed[msg.Origin] = as
	}
	c.tryFlushParked()
}

// onRivalAdv watches other controllers' advertisements: hearing a rival
// whose epoch supersedes ours means a partition healed (or a standby
// wrongly promoted) and exactly one of us must stand down.
func (c *Controller) onRivalAdv(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	adv, ok := msg.Payload.(advMsg)
	if !ok || adv.Controller == c.node.Addr() {
		return
	}
	if c.epoch.Defers(adv.Epoch) {
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
	if c.stopped {
		return
	}
	cm, ok := msg.Payload.(ckptMsg)
	if !ok {
		return
	}
	ck, err := DecodeCheckpoint(cm.Data)
	if err != nil {
		c.stats.CkptRejected.Inc()
		return
	}
	sendAck(c.node, msg.Origin, ck.Seq, true, c.epoch)
}

// sendAck acknowledges checkpoint seq to ctl, carrying the highest epoch
// the sender knows; disarm refuses (or gives up) the standby role.
func sendAck(node *vnet.Node, ctl vnet.Addr, seq uint64, disarm bool, known Epoch) {
	node.SendTo(ctl, node.NewMessage(ctl, kindCkptAck, 64, 1, ackMsg{Seq: seq, Disarm: disarm, Known: known}))
}

// abdicateTo stands the controller down in favor of a superseding
// rival: ship its encoded checkpoint in a merge message for
// anti-entropy, then halt. The OnAbdicate hook lets the deployment
// re-attach a member agent on this node — leadership returns to the
// rival deterministically.
func (c *Controller) abdicateTo(target vnet.Addr, rival Epoch) {
	c.stats.Abdications.Inc()
	c.cfg.Trace.Emit(c.node.Kernel().Now(), trace.CatCloud, int32(c.node.Addr()),
		"abdicating %v to rival %v at %d", c.epoch, rival, target)
	ck := c.Checkpoint()
	// The frame keeps this estimate, not the encoding's length: frame
	// lengths are part of the radio model, and fenced runs move with it.
	size := 128 + 24*len(ck.Members) + 96*len(ck.Tasks) + 16*len(ck.Applied) + 96*len(ck.Parked) + 160*len(ck.Jobs)
	msg := c.node.NewMessage(target, kindMerge, size, 1, ckptMsg{Data: EncodeCheckpoint(ck)})
	c.node.SendTo(target, msg)
	onAbdicate := c.cfg.OnAbdicate
	c.Crash() // silent halt: pending task state was shipped in the merge
	if onAbdicate != nil {
		onAbdicate(c)
	}
}

// onMerge reconciles an abdicated rival's state into this controller:
// membership union, ledger merge, orphaned-task adoption, parked-outcome
// application (deduped to exactly-once), then an epoch bump past both
// generations so members re-accept leadership under a fresh counter. A
// payload that does not decode is counted in CkptRejected and changes
// nothing.
func (c *Controller) onMerge(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	cm, ok := msg.Payload.(ckptMsg)
	if !ok {
		return
	}
	mm, err := DecodeCheckpoint(cm.Data)
	if err != nil {
		c.stats.CkptRejected.Inc()
		return
	}
	c.stats.Merges.Inc()
	now := c.node.Kernel().Now()
	self := c.node.Addr()
	for _, ms := range mm.Members {
		if ms.Addr == self || ms.Addr == msg.Origin {
			continue
		}
		if _, known := c.members[ms.Addr]; !known {
			c.members[ms.Addr] = &memberInfo{res: ms.Res, lastSeen: now}
		}
	}
	for _, ar := range mm.Applied {
		c.recordApplied(ar.ID, ar.Epoch)
	}
	// The abdicator's armed standbys hold its state and may still
	// promote from it; inherit the obligation before deciding whether
	// its parked outcomes (and ours) can apply directly.
	c.inheritArmed(mm.Armed, now)
	// Adopt the rival's in-flight DAG jobs before its tasks, so adopted
	// stage tasks (and parked stage outcomes below) find their job rows.
	for _, jc := range mm.Jobs {
		if _, live := c.jobs[jc.ID]; live {
			continue // shared checkpoint lineage: we already run this job
		}
		c.restoreJob(jc)
	}
	adopted := 0
	for _, tc := range mm.Tasks {
		id := tc.Task.ID
		if _, dup := c.applied[id]; dup {
			continue // outcome already applied somewhere: do not re-run
		}
		if _, live := c.tasks[id]; live {
			continue // we already run our own copy (shared checkpoint lineage)
		}
		c.stats.Adopted.Inc()
		adopted++
		c.resume(tc)
	}
	for _, po := range mm.Parked {
		id := po.Task.ID
		if _, dup := c.applied[id]; dup {
			c.stats.Deduped.Inc()
			continue
		}
		// The rival finished this task but never applied it; apply here
		// (the submitter callback could not cross the wire). If we run
		// our own copy of the task, retire it — its outcome is decided.
		if ts, live := c.tasks[id]; live {
			c.releaseReplicas(ts)
			delete(c.tasks, id)
		}
		e := &parkedEntry{po: po, replicas: len(po.Voters)}
		e.po.Seq = c.ckptSeq + 1
		if c.cfg.Failover && len(c.armed) > 0 {
			c.parked = append(c.parked, e)
		} else {
			c.applyEntry(e)
		}
	}
	// Re-drive adopted DAGs: stages whose tasks died with the abdicator
	// go back to Waiting and are re-dispatched under the merged epoch.
	c.dagResume()
	// Bump past both generations and re-advertise: members re-accept
	// leadership under a counter no other controller has ever claimed,
	// keeping "at most one controller accepted per epoch" sound.
	top := c.epoch.Counter
	if mm.Epoch.Counter > top {
		top = mm.Epoch.Counter
	}
	c.epoch = NextEpoch(top, self)
	c.cfg.Trace.Emit(now, trace.CatCloud, int32(self),
		"merged rival %v from %d: %d members, %d tasks adopted, now %v",
		mm.Epoch, msg.Origin, len(mm.Members), adopted, c.epoch)
	// Partition heal is when storage placements are most skewed: both
	// sides churned independently. Repair under the merged epoch — the
	// anti-entropy pass for data, mirroring the task-table merge above.
	c.repairStorage()
	c.advertise()
}
