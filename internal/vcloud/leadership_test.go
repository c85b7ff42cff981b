package vcloud

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// The leadership core is driven here with no kernel and no radio: a rig
// plays one fenced controller (address 0) and two member cores, standby
// A (1) and standby B (2), and a program of two-byte steps feeds them
// inputs. Every step is logged, so a table case pins the decisions in
// order, and FuzzLeadership runs arbitrary programs against the core's
// safety invariants.

const rivalAddr vnet.Addr = 9

var standbys = [2]vnet.Addr{1, 2}

// Step opcodes; each step is {opcode, argument}.
const (
	opWait   = iota // the clock advances arg%16 half-seconds
	opTick          // the controller ticks proposing standby arg%3 (2: none)
	opAck           // the oldest ack queued by member arg%2 arrives
	opLose          // the oldest ack queued by member arg%2 is lost
	opDisarm        // member arg%2 hears the controller name the other standby
	opSubmit        // a task is submitted and finishes at once
	opRival         // a rival advertises round arg&3; see rival
	opMerge         // a rival's checkpoint is merged; see merge
	numOps
)

type step [2]byte

func doWait(halfSeconds byte) step { return step{opWait, halfSeconds} }
func doTick(who byte) step         { return step{opTick, who} }
func doAck(who byte) step          { return step{opAck, who} }
func doLose(who byte) step         { return step{opLose, who} }
func doDisarm(who byte) step       { return step{opDisarm, who} }
func doSubmit() step               { return step{opSubmit, 0} }

// rival advertises Epoch{round<<16 | 9, 9}; the members hear it, followed
// when follow is set (their controller went silent), and so does the
// controller when ctl is set.
func doRival(round byte, follow, ctl bool) step {
	arg := round & 3
	if follow {
		arg |= 4
	}
	if ctl {
		arg |= 8
	}
	return step{opRival, arg}
}

// merge merges a checkpoint of the rival at round, listing task applied
// as applied, tasks parked and 100+n (fresh) as parked, and as armed
// standby who, or this controller itself when self is set. Task ids are
// 1 to 4.
func doMerge(round byte, applied, parked TaskID, who byte, self bool) step {
	arg := round&3 | byte(applied-1)&3<<2 | byte(parked-1)&3<<4 | who&1<<6
	if self {
		arg |= 1 << 7
	}
	return step{opMerge, arg}
}

func program(steps ...step) []byte {
	var b []byte
	for _, s := range steps {
		b = append(b, s[0], s[1])
	}
	return b
}

func rivalEpoch(round byte) Epoch {
	return Epoch{Counter: uint64(round&3)<<epochAddrBits | uint64(rivalAddr), Claimant: rivalAddr}
}

type rig struct {
	now     sim.Time
	l       leader
	m       [2]follower
	acks    [2][]ackMsg // queued from each member to the controller
	next    TaskID
	merges  TaskID
	applied map[TaskID]bool
	log     []string
	err     error // the first invariant breach
}

func newRig() *rig {
	return &rig{
		l:       newLeader(0, fencedLeader),
		m:       [2]follower{newFollower(), newFollower()},
		applied: make(map[TaskID]bool),
	}
}

func (r *rig) logf(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }

func (r *rig) breach(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// run executes a program, at most 256 steps of it.
func (r *rig) run(prog []byte) {
	for i := 0; i+1 < len(prog) && i < 512; i += 2 {
		epoch := r.l.epoch
		r.step(prog[i], prog[i+1])
		if r.l.epoch.Counter < epoch.Counter {
			r.breach("step %d: epoch fell from %v to %v", i/2, epoch, r.l.epoch)
		}
	}
}

func (r *rig) step(op, arg byte) {
	who := int(arg % 2)
	switch op % numOps {
	case opWait:
		r.now += sim.Time(arg%16) * 500 * time.Millisecond
	case opTick:
		cand := vnet.Addr(-1)
		if arg%3 < 2 {
			cand = standbys[arg%3]
		}
		lost, due := r.l.tick(r.now, cand)
		if lost {
			r.logf("standby lost")
		}
		if due {
			r.logf("ckpt %d to %d", r.l.ckptSeq, cand)
			_, acks := r.m[arg%3].onCkpt(0, r.l.snapshot())
			r.queue(int(arg%3), acks)
		}
	case opAck, opLose:
		if len(r.acks[who]) == 0 {
			return
		}
		am := r.acks[who][0]
		r.acks[who] = r.acks[who][1:]
		if op%numOps == opLose {
			r.logf("lost ack %d from %d", am.Seq, standbys[who])
			return
		}
		if am.Disarm {
			r.logf("disarm %d from %d", am.Seq, standbys[who])
		} else {
			r.logf("ack %d from %d", am.Seq, standbys[who])
		}
		rival, ready := r.l.onAck(r.now, standbys[who], am)
		if !rival.Zero() {
			r.logf("deposed by %v", rival)
		}
		for _, e := range ready {
			for a, as := range r.l.armed {
				if as.acked < e.po.Seq {
					r.breach("task %d applied before standby %d acked ckpt %d (acked %d)", e.po.Task.ID, a, e.po.Seq, as.acked)
				}
			}
			r.apply(e)
		}
	case opDisarm:
		_, acks := r.m[who].onAdv(standbys[who], advMsg{Controller: 0, Standby: standbys[1-who], Epoch: r.l.epoch}, true)
		r.queue(who, acks)
	case opSubmit:
		if err := r.l.lease(r.now); err != nil {
			r.logf("refused: %v", err)
			return
		}
		r.next++
		r.settle(&parkedEntry{po: ParkedOutcome{Task: Task{ID: r.next}}})
	case opRival:
		e := rivalEpoch(arg)
		for i := range r.m {
			_, acks := r.m[i].onAdv(standbys[i], advMsg{Controller: rivalAddr, Standby: -1, Epoch: e}, arg&4 != 0)
			r.queue(i, acks)
		}
		if arg&8 != 0 && r.l.deposedBy(e) {
			r.logf("deposed by %v", e)
		}
	case opMerge:
		r.merges++
		ck := Checkpoint{
			Controller: rivalAddr,
			Epoch:      rivalEpoch(arg),
			Applied:    []AppliedRecord{{ID: TaskID(arg>>2&3) + 1, Epoch: rivalEpoch(arg).Counter}},
			Parked:     []ParkedOutcome{{Task: Task{ID: TaskID(arg>>4&3) + 1}}, {Task: Task{ID: 100 + r.merges}}},
			Armed:      []vnet.Addr{standbys[arg>>6&1]},
		}
		if arg>>7 != 0 {
			ck.Armed[0] = 0
		}
		r.logf("merge %v", ck.Epoch)
		r.l.seed(r.now, &ck, false)
		for _, po := range ck.Parked {
			if r.l.settled(po.Task.ID) {
				r.logf("dedupe %d", po.Task.ID)
				continue
			}
			r.settle(&parkedEntry{po: po})
		}
		r.l.mintPast(ck.Epoch)
		r.logf("epoch %v", r.l.epoch)
	}
}

// queue keeps the acks addressed to the controller; the rival's are
// dropped, since no rival core runs.
func (r *rig) queue(who int, acks []ackTo) {
	for _, a := range acks {
		if a.ctl == 0 {
			r.acks[who] = append(r.acks[who], a.ack)
		}
	}
}

func (r *rig) settle(e *parkedEntry) {
	if r.l.park(e) {
		r.logf("park %d until %d", e.po.Task.ID, e.po.Seq)
		return
	}
	if len(r.l.armed) > 0 {
		r.breach("task %d applied unparked with %d standbys armed", e.po.Task.ID, len(r.l.armed))
	}
	r.apply(e)
}

func (r *rig) apply(e *parkedEntry) {
	id := e.po.Task.ID
	if !r.l.record(id) {
		r.logf("dedupe %d", id)
		return
	}
	if r.applied[id] {
		r.breach("task %d applied twice", id)
	}
	r.applied[id] = true
	r.logf("apply %d", id)
}

// leaderCases are the table cases, and FuzzLeadership's seed corpus.
var leaderCases = []struct {
	name string
	prog []byte
	want []string
}{
	{"park, partial ack, flush in order", program(
		doWait(4), doTick(0), doWait(4), doTick(1), doSubmit(), doSubmit(),
		doAck(0), doAck(1), doWait(4), doTick(0), doAck(0), doWait(4), doTick(1), doAck(1),
	), []string{
		"ckpt 1 to 1", "ckpt 2 to 2", "park 1 until 3", "park 2 until 3",
		"ack 1 from 1", "ack 2 from 2", "ckpt 3 to 1",
		"ack 3 from 1", // standby 2 has acked only ckpt 2: nothing applies
		"ckpt 4 to 2", "ack 4 from 2", "apply 1", "apply 2",
	}},
	{"disarm releases a parked outcome", program(
		doWait(4), doTick(0), doAck(0), doSubmit(), doDisarm(0), doAck(0),
	), []string{
		"ckpt 1 to 1", "ack 1 from 1", "park 1 until 2", "disarm 1 from 1", "apply 1",
	}},
	{"a lost ack keeps the outcome parked", program(
		doWait(4), doTick(0), doAck(0), doSubmit(), doWait(4), doTick(0), doLose(0), doWait(4), doTick(0), doAck(0),
	), []string{
		"ckpt 1 to 1", "ack 1 from 1", "park 1 until 2", "ckpt 2 to 1", "lost ack 2 from 1",
		"ckpt 3 to 1", "ack 3 from 1", "apply 1",
	}},
	{"the lease expires past failoverTTL of silence, not at it", program(
		doWait(4), doTick(0), doWait(8), doSubmit(), doWait(1), doSubmit(),
	), []string{
		"ckpt 1 to 1", "park 1 until 2", "refused: " + errLeaseExpired.Error(),
	}},
	{"a standby's ack carries the epoch that deposes the controller", program(
		doWait(4), doTick(0), doRival(2, false, false), doAck(0), doAck(0),
	), []string{
		"ckpt 1 to 1", "ack 1 from 1", "disarm 1 from 1", "deposed by e2@9",
	}},
	{"rival advertisements: a lower round does not depose; the same round at a higher address does", program(
		doRival(0, false, true), doRival(1, false, true), doRival(2, false, true),
	), []string{
		"deposed by e1@9", "deposed by e2@9",
	}},
	{"merge dedupes applied outcomes and mints past both epochs", program(
		doWait(4), doSubmit(), doMerge(3, 2, 1, 1, false), doSubmit(), doTick(1), doAck(1),
	), []string{
		"apply 1", "merge e3@9", "dedupe 1", "park 101 until 1", "epoch e4@0",
		"park 2 until 1", "ckpt 1 to 2", "ack 1 from 2", "apply 101", "dedupe 2",
	}},
	{"merge never arms this controller itself", program(
		doMerge(0, 1, 2, 0, true),
	), []string{
		"merge e0@9", "apply 2", "apply 101", "epoch e2@0",
	}},
}

func TestLeadership(t *testing.T) {
	for _, tc := range leaderCases {
		r := newRig()
		r.run(tc.prog)
		if r.err != nil {
			t.Errorf("%s: %v", tc.name, r.err)
		}
		if !slices.Equal(r.log, tc.want) {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, r.log, tc.want)
		}
	}
}

// TestStandbyMovesWithItsCheckpoint: a candidate proposed between
// checkpoints is not designated, so no advertisement deposes the standby
// holding the last checkpoint before its successor is sent one; at the
// next due checkpoint it is. With no candidate the standby is lost at
// once.
func TestStandbyMovesWithItsCheckpoint(t *testing.T) {
	l := newLeader(0, fencedLeader)
	a, b := standbys[0], standbys[1]
	for _, tc := range []struct {
		at         sim.Time
		cand, want vnet.Addr
		lost, due  bool
	}{
		{1 * time.Second, a, -1, false, false},
		{2 * time.Second, a, a, false, true},
		{3 * time.Second, b, a, false, false},
		{4 * time.Second, b, b, false, true},
		{5 * time.Second, -1, -1, true, false},
	} {
		lost, due := l.tick(tc.at, tc.cand)
		if l.standby != tc.want || lost != tc.lost || due != tc.due {
			t.Errorf("at %v proposing %d: standby %d, lost %v, checkpoint due %v; want %d, %v, %v",
				tc.at, tc.cand, l.standby, lost, due, tc.want, tc.lost, tc.due)
		}
	}
}

// TestLeaderDeposition: a controller defers to a higher counter, and on
// a tied counter to the lower claimant; never to a lower counter, to
// zero or to itself.
func TestLeaderDeposition(t *testing.T) {
	l := newLeader(5, fencedLeader)
	own := l.epoch
	for _, tc := range []struct {
		rival Epoch
		want  bool
	}{
		{NextEpoch(own.Counter, 9), true},
		{Epoch{Counter: own.Counter, Claimant: 3}, true},
		{Epoch{Counter: own.Counter, Claimant: 9}, false},
		{Epoch{Counter: own.Counter - 1, Claimant: 3}, false},
		{Epoch{}, false},
		{own, false},
	} {
		if got := l.deposedBy(tc.rival); got != tc.want {
			t.Errorf("epoch %v deposed by %v (counter %d vs %d) = %v, want %v",
				own, tc.rival, tc.rival.Counter, own.Counter, got, tc.want)
		}
	}
}

// TestLeaderSeeding: a restore takes the checkpoint's Applied and Parked
// into the ledger, inherits every armed standby but itself with a fresh
// lease, and promotes past the checkpoint's epoch. A merge takes Applied
// only: it applies the rival's parked outcomes itself.
func TestLeaderSeeding(t *testing.T) {
	prev := NextEpoch(NextEpoch(0, 3).Counter, 3)
	ck := Checkpoint{
		Epoch:   prev,
		Applied: []AppliedRecord{{ID: 7, Epoch: 11}},
		Parked:  []ParkedOutcome{{Task: Task{ID: 8}}},
		Armed:   []vnet.Addr{5, 6},
	}
	const now = 30 * time.Second
	for _, restore := range []bool{true, false} {
		l := newLeader(5, fencedLeader)
		l.seed(now, &ck, restore)
		l.mintPast(ck.Epoch)
		if !l.settled(7) || l.applied[7] != 11 {
			t.Errorf("restore=%v: applied row 7 not seeded at its epoch: %v", restore, l.applied)
		}
		if l.settled(8) != restore {
			t.Errorf("restore=%v: parked task 8 in the ledger = %v", restore, l.settled(8))
		}
		if restore && l.applied[8] != prev.Counter {
			t.Errorf("parked task 8 seeded at %d, want the checkpoint's epoch %d", l.applied[8], prev.Counter)
		}
		if len(l.armed) != 1 || l.armed[6] != (armedStandby{at: now}) {
			t.Errorf("restore=%v: armed %v, want only standby 6 leased from now", restore, l.armed)
		}
		if want := NextEpoch(prev.Counter, 5); l.epoch != want {
			t.Errorf("restore=%v: epoch %v, want %v", restore, l.epoch, want)
		}
	}
	// An unfenced core seeds nothing and keeps the zero epoch.
	l := newLeader(5, failoverLeader)
	l.seed(now, &ck, true)
	l.mintPast(ck.Epoch)
	if l.settled(7) || len(l.armed) != 0 || !l.epoch.Zero() {
		t.Errorf("unfenced core seeded: applied %v armed %v epoch %v", l.applied, l.armed, l.epoch)
	}
}

// TestFollowerWatermark: the member's epoch watermark and standby
// checkpoint under superseding, stale and silent-controller inputs.
func TestFollowerWatermark(t *testing.T) {
	const self, ctl = 1, 0
	e1, e2 := NextEpoch(0, ctl), NextEpoch(NextEpoch(0, ctl).Counter, rivalAddr)
	holding := func(mark Epoch) follower {
		f := newFollower()
		f.highestEpoch = mark
		f.standbyCkpt, f.standbyFrom = &Checkpoint{Seq: 4, Epoch: e1}, ctl
		return f
	}
	t.Run("a superseding advertisement preempts and disarms", func(t *testing.T) {
		f := holding(e1)
		follow, acks := f.onAdv(self, advMsg{Controller: rivalAddr, Standby: -1, Epoch: e2}, false)
		want := []ackTo{disarmAck(ctl, 4, e2), disarmAck(rivalAddr, 4, e2)}
		if !follow || f.highestEpoch != e2 || f.standbyCkpt != nil || !slices.Equal(acks, want) {
			t.Errorf("follow %v mark %v held %v acks %+v; want follow, mark %v, nothing held, acks %+v",
				follow, f.highestEpoch, f.standbyCkpt != nil, acks, e2, want)
		}
	})
	t.Run("a stale generation is followed only after silence", func(t *testing.T) {
		f := newFollower()
		f.highestEpoch = e2
		adv := advMsg{Controller: ctl, Standby: -1, Epoch: e1}
		if follow, acks := f.onAdv(self, adv, false); follow || acks != nil || f.highestEpoch != e2 {
			t.Errorf("live controller: follow %v acks %v mark %v; want refused, mark kept", follow, acks, f.highestEpoch)
		}
		if follow, _ := f.onAdv(self, adv, true); !follow || f.highestEpoch != e1 {
			t.Errorf("silent controller: follow %v mark %v; want followed, mark lowered to %v", follow, f.highestEpoch, e1)
		}
	})
	t.Run("a stale checkpoint is refused with a disarm-ack", func(t *testing.T) {
		f := holding(e2)
		isStale, acks := f.onCkpt(ctl, Checkpoint{Seq: 5, Epoch: e1})
		if want := []ackTo{disarmAck(ctl, 5, e2)}; !isStale || f.standbyCkpt != nil || !slices.Equal(acks, want) {
			t.Errorf("stale %v held %v acks %+v; want stale, nothing held, acks %+v", isStale, f.standbyCkpt != nil, acks, want)
		}
		if f.admit(e1) || !f.admit(Epoch{}) || !f.admit(e2) {
			t.Error("admit: want e1 refused, zero and e2 admitted")
		}
	})
	t.Run("a held checkpoint is acked and promotes past the watermark", func(t *testing.T) {
		f := newFollower()
		f.highestEpoch = e2
		if isStale, acks := f.onCkpt(ctl, Checkpoint{Seq: 6, Epoch: e2}); isStale || len(acks) != 1 || acks[0] != (ackTo{ctl, ackMsg{Seq: 6, Known: e2}}) {
			t.Fatalf("stale %v acks %+v; want one plain ack", isStale, acks)
		}
		f.highestEpoch = NextEpoch(e2.Counter, rivalAddr)
		if _, ok := f.promote(ctl, failoverTTL); ok {
			t.Error("promoted at exactly failoverTTL of silence")
		}
		if _, ok := f.promote(rivalAddr, time.Minute); ok {
			t.Error("promoted while following another controller")
		}
		ck, ok := f.promote(ctl, failoverTTL+1)
		if !ok || ck.Epoch.Counter != f.highestEpoch.Counter || f.standbyCkpt != nil {
			t.Errorf("promote: ok %v epoch %v, want the watermark %v and the checkpoint handed over", ok, ck.Epoch, f.highestEpoch)
		}
	})
}

// FuzzLeadership runs arbitrary programs against the leadership core and
// checks after every step that the controller's epoch never falls, that
// no task is applied twice, and that a parked outcome applies only once
// every armed standby has acked its checkpoint or disarmed.
func FuzzLeadership(f *testing.F) {
	for _, tc := range leaderCases {
		f.Add(tc.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := newRig()
		r.run(prog)
		if r.err != nil {
			t.Fatalf("%v\nlog %q", r.err, r.log)
		}
	})
}
