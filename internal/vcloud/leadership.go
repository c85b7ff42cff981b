// The leadership core: every failover and fencing decision of a
// vehicular cloud, on plain state and inputs. It calls into no simulator,
// radio node, counter, event log or callback; the controller and member
// agents decode messages, call one method per input with the current
// time, and carry out what it returns (send these acks, apply these
// outcomes, abdicate to this rival). That lets a test drive the rules
// without a radio.
//
// A controller runs in one of three modes, fixed at construction:
// plain (no standby), failover (a checkpoint to a standby every
// checkpointPeriod; the standby promotes after failoverTTL of silence)
// and fenced, which is failover made split-brain safe:
//
//   - Every advertisement, checkpoint, dispatch and result carries the
//     controller's Epoch; workers reject stale-epoch messages, and a
//     controller that hears a rival with a superseding epoch abdicates
//     back to member deterministically.
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
	"errors"
	"slices"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// errLeaseExpired refuses new work while an armed standby is silent.
var errLeaseExpired = errors.New("vcloud: leadership lease expired (standby unreachable)")

// leaderMode is a controller's leadership discipline.
type leaderMode uint8

const (
	plainLeader leaderMode = iota
	failoverLeader
	fencedLeader
)

// modeOf picks the mode once, at construction: fencing implies failover.
func modeOf(cfg ControllerConfig, failover bool) leaderMode {
	switch {
	case cfg.Fencing:
		return fencedLeader
	case failover:
		return failoverLeader
	}
	return plainLeader
}

// leaderMode is the mode of every controller a deployment starts.
func (d DeployConfig) leaderMode() leaderMode { return modeOf(d.Controller, d.Failover) }

// stale reports whether a message stamped e comes from a leadership
// generation below mark. Zero (unfenced) epochs are never stale.
func stale(mark, e Epoch) bool { return !e.Zero() && mark.Supersedes(e) }

// ackTo is one checkpoint acknowledgement to send to ctl.
type ackTo struct {
	ctl vnet.Addr
	ack ackMsg
}

// disarmAck refuses, or gives up, the standby role for checkpoint seq,
// carrying known, the highest epoch the sender has witnessed.
func disarmAck(ctl vnet.Addr, seq uint64, known Epoch) ackTo {
	return ackTo{ctl: ctl, ack: ackMsg{Seq: seq, Disarm: true, Known: known}}
}

// armedStandby is the leader's book-keeping for one standby it has
// replicated a checkpoint to: the highest sequence the standby
// acknowledged and when it was last heard from (initially: armed).
type armedStandby struct {
	acked uint64
	at    sim.Time
}

// leader is the controller side of the core. armed holds every standby
// sent a checkpoint that has not disarmed; parked holds finished
// outcomes awaiting its acks, in checkpoint-seq order; applied (in
// appliedOrder) is the capped (task, epoch) exactly-once ledger.
type leader struct {
	mode leaderMode
	self vnet.Addr
	// standby is the designated failover successor (-1 when none).
	standby  vnet.Addr
	ckptSeq  uint64
	lastCkpt sim.Time

	epoch        Epoch
	armed        map[vnet.Addr]armedStandby
	parked       []*parkedEntry
	applied      map[TaskID]uint64
	appliedOrder []TaskID
}

func newLeader(self vnet.Addr, mode leaderMode) leader {
	l := leader{mode: mode, self: self, standby: -1}
	if mode == fencedLeader {
		l.epoch = NextEpoch(0, self)
		l.armed = make(map[vnet.Addr]armedStandby)
		l.applied = make(map[TaskID]uint64)
	}
	return l
}

func (l *leader) fenced() bool { return l.mode == fencedLeader }

// tick reports whether candidate (-1: none) loses the last standby and
// whether a checkpoint is due. With no candidate the standby is gone at
// once; otherwise the candidate becomes the standby only when a
// checkpoint to it is due, so no advertisement deposes the standby
// holding the last checkpoint before its successor is sent one. A due
// checkpoint's recipient is armed before it is built, so its Armed list
// names the recipient too (a third sibling must learn of it).
func (l *leader) tick(now sim.Time, candidate vnet.Addr) (lost, ckpt bool) {
	if l.mode == plainLeader {
		return false, false
	}
	if candidate < 0 {
		lost = l.standby >= 0
		l.standby = -1
		return lost, false
	}
	if now-l.lastCkpt < checkpointPeriod {
		return false, false
	}
	l.standby = candidate
	l.ckptSeq++
	l.lastCkpt = now
	if _, armed := l.armed[candidate]; !armed && l.fenced() {
		l.armed[candidate] = armedStandby{at: now} // the lease grace starts here
	}
	return false, true
}

// lease refuses new work once any armed standby has been silent for
// longer than failoverTTL: it may have promoted from its copy, so new
// work could run twice. A reachable standby designated mid-partition
// does not lift the lease a silent one on the far side holds.
func (l *leader) lease(now sim.Time) error {
	for _, as := range l.armed {
		if now-as.at > failoverTTL {
			return errLeaseExpired
		}
	}
	return nil
}

// park holds a finished outcome back until the next checkpoint, which
// carries it, is acked: an armed standby might promote from a copy that
// still lists the task in flight. With no standby armed nobody can, and
// park returns false: apply now.
func (l *leader) park(e *parkedEntry) bool {
	if len(l.armed) == 0 {
		return false
	}
	e.po.Seq = l.ckptSeq + 1
	l.parked = append(l.parked, e)
	return true
}

// record enters id into the applied ledger at the current epoch and
// reports whether the outcome may be applied; false is a duplicate.
func (l *leader) record(id TaskID) bool {
	return !l.fenced() || l.recordAt(id, l.epoch.Counter)
}

// recordAt enters id applied under epoch; false when already present.
func (l *leader) recordAt(id TaskID, epoch uint64) bool {
	if _, dup := l.applied[id]; dup {
		return false
	}
	l.applied[id] = epoch
	l.appliedOrder = append(l.appliedOrder, id)
	// Evict the oldest entries beyond the cap: only recently applied
	// tasks can still be in flight on a stale checkpoint or rival.
	for len(l.appliedOrder) > appliedLedgerCap {
		delete(l.applied, l.appliedOrder[0])
		l.appliedOrder = l.appliedOrder[1:]
	}
	return true
}

// settled reports whether id's outcome is already in the ledger.
func (l *leader) settled(id TaskID) bool {
	_, dup := l.applied[id]
	return dup
}

// onAck takes a standby's acknowledgement. A non-zero rival is an epoch
// the acker witnessed that deposes this controller: abdicate to it.
// Else ready lists, in order, the parked outcomes every armed standby
// has now acked or disarmed; the caller applies them.
func (l *leader) onAck(now sim.Time, from vnet.Addr, am ackMsg) (rival Epoch, ready []*parkedEntry) {
	if l.epoch.Defers(am.Known) {
		return am.Known, nil
	}
	as, armed := l.armed[from]
	if !armed {
		return Epoch{}, nil // never armed (or already disarmed): stale ack
	}
	if am.Disarm {
		delete(l.armed, from)
	} else {
		as.acked = max(as.acked, am.Seq)
		as.at = now
		l.armed[from] = as
	}
	minAck := ^uint64(0)
	for _, as := range l.armed {
		minAck = min(minAck, as.acked)
	}
	n := 0
	for n < len(l.parked) && l.parked[n].po.Seq <= minAck {
		n++ // parked is in seq order; the rest are newer
	}
	ready = l.parked[:n:n]
	l.parked = l.parked[n:]
	return Epoch{}, ready
}

// deposedBy reports whether a rival advertising e supersedes this
// controller, which must then stand down.
func (l *leader) deposedBy(e Epoch) bool { return l.epoch.Defers(e) }

// snapshot is a checkpoint holding the leadership state alone.
func (l *leader) snapshot() Checkpoint {
	ck := Checkpoint{
		Seq:     l.ckptSeq,
		Epoch:   l.epoch,
		Applied: make([]AppliedRecord, 0, len(l.appliedOrder)),
		Parked:  make([]ParkedOutcome, 0, len(l.parked)),
		Armed:   sortedKeys(l.armed),
	}
	for _, id := range l.appliedOrder {
		ck.Applied = append(ck.Applied, AppliedRecord{ID: id, Epoch: l.applied[id]})
	}
	for _, e := range l.parked {
		ck.Parked = append(ck.Parked, e.po)
	}
	return ck
}

// seed folds in a fenced checkpoint this node promotes from (restore)
// or an abdicated rival's (merge). Its Applied rows seed the ledger, and
// on a restore its Parked outcomes too: their apply was licensed, so
// resuming them could apply them twice. Every armed standby but this
// node may promote a sibling of the same lineage, so outcomes park until
// it disarms; its lease starts now.
func (l *leader) seed(now sim.Time, ck *Checkpoint, restore bool) {
	if !l.fenced() {
		return
	}
	for _, ar := range ck.Applied {
		l.recordAt(ar.ID, ar.Epoch)
	}
	if restore {
		for _, po := range ck.Parked {
			l.recordAt(po.Task.ID, ck.Epoch.Counter)
		}
	}
	for _, a := range ck.Armed {
		if _, known := l.armed[a]; !known && a != l.self {
			l.armed[a] = armedStandby{at: now}
		}
	}
}

// mintPast moves a fenced leader to an epoch no controller has claimed,
// above both its own and e: a promotion fences off the predecessor's
// dispatches, and a merge lets members re-accept leadership under a
// fresh counter, keeping "at most one controller accepted per epoch".
func (l *leader) mintPast(e Epoch) {
	if l.fenced() {
		l.epoch = NextEpoch(max(l.epoch.Counter, e.Counter), l.self)
	}
}

// follower is the member side of the core: the highest fencing token
// the member has witnessed (messages from a lower counter are stale),
// and the checkpoint it holds as a controller's designated standby
// (standbyFrom is that controller, -1 when none).
type follower struct {
	highestEpoch Epoch
	standbyCkpt  *Checkpoint
	standbyFrom  vnet.Addr
}

func newFollower() follower { return follower{standbyFrom: -1} }

func (f *follower) watermark() Epoch { return f.highestEpoch }

// admit takes a message stamped e: false when it is stale, else the
// watermark rises to e.
func (f *follower) admit(e Epoch) bool {
	if stale(f.highestEpoch, e) {
		return false
	}
	if e.Supersedes(f.highestEpoch) {
		f.highestEpoch = e
	}
	return true
}

// disarm drops the standby checkpoint. When a fenced controller sent it,
// each named controller gets a disarm-ack: the armer may be parking
// outcomes on this member's account, and a successor may have inherited
// that obligation — both need to hear it can no longer promote.
func (f *follower) disarm(acks []ackTo, ctls ...vnet.Addr) []ackTo {
	ck := f.standbyCkpt
	f.standbyCkpt, f.standbyFrom = nil, -1
	if ck == nil || ck.Epoch.Zero() {
		return acks
	}
	for i, ctl := range ctls {
		if ctl >= 0 && !slices.Contains(ctls[:i], ctl) {
			acks = append(acks, disarmAck(ctl, ck.Seq, f.highestEpoch))
		}
	}
	return acks
}

// onAdv takes an advertisement by a member at self that would follow
// its advertiser on liveness grounds alone (follow). It returns whether
// the member follows, and the acks to send first.
func (f *follower) onAdv(self vnet.Addr, adv advMsg, follow bool) (bool, []ackTo) {
	var acks []ackTo
	// Deposed as standby: a fresher advertisement names someone else.
	if f.standbyFrom == adv.Controller && adv.Standby != self {
		acks = f.disarm(acks, adv.Controller)
	}
	e := adv.Epoch
	switch {
	case e.Supersedes(f.highestEpoch):
		// A newer generation preempts at once, not after silence. A
		// standby checkpoint from the superseded one may list work the
		// new one already applied: drop it, and the disarm-ack unsticks
		// the deposed controller's parked outcomes (and deposes it).
		f.highestEpoch = e
		if f.standbyCkpt != nil && e.Supersedes(f.standbyCkpt.Epoch) {
			acks = f.disarm(acks, f.standbyFrom, adv.Controller)
		}
		follow = true
	case stale(f.highestEpoch, e):
		// Stale generation: follow it only if the member's controller
		// went silent — a stale live coordinator beats none — lowering
		// the watermark to re-admit its dispatches.
		if !follow {
			return false, acks
		}
		f.highestEpoch = e
	}
	return follow, acks
}

// onCkpt holds a controller's checkpoint as its standby, acked under
// fencing so the outcomes it carries may apply. A stale one is refused
// with a disarm-ack, so its controller's parked outcomes do not stall
// (and the Known epoch deposes it).
func (f *follower) onCkpt(from vnet.Addr, ck Checkpoint) (isStale bool, acks []ackTo) {
	if !f.admit(ck.Epoch) {
		// The disarm must be truthful: drop any checkpoint this (now
		// superseded) controller armed us with earlier, or we could later
		// promote from it and replay a task table whose outcomes the
		// controller applied once we disarmed it.
		if f.standbyFrom == from {
			f.standbyCkpt, f.standbyFrom = nil, -1
		}
		return true, []ackTo{disarmAck(from, ck.Seq, f.highestEpoch)}
	}
	f.standbyCkpt, f.standbyFrom = &ck, from
	if ck.Epoch.Zero() {
		return false, nil
	}
	return false, []ackTo{{ctl: from, ack: ackMsg{Seq: ck.Seq, Known: f.highestEpoch}}}
}

// promote hands the checkpoint over once the controller it came from,
// still the one followed, has been silent past failoverTTL. Its epoch is
// lifted to the watermark: a higher-epoch controller may have applied
// outcomes since the checkpoint was cut.
func (f *follower) promote(controller vnet.Addr, silence sim.Time) (Checkpoint, bool) {
	if f.standbyCkpt == nil || controller != f.standbyFrom || silence <= failoverTTL {
		return Checkpoint{}, false
	}
	ck := *f.standbyCkpt
	f.standbyCkpt, f.standbyFrom = nil, -1
	if !ck.Epoch.Zero() && f.highestEpoch.Counter > ck.Epoch.Counter {
		ck.Epoch.Counter = f.highestEpoch.Counter
	}
	return ck, true
}
