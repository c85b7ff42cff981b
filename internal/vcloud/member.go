package vcloud

import (
	"fmt"
	"slices"
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vnet"
)

// checkPeriod is the member's departure-check interval.
const checkPeriod = time.Second

// MemberConfig tunes a member agent.
type MemberConfig struct {
	// CPU is the capacity contributed to the pool, in ops/s.
	CPU float64
	// Handover, when true, lets the member hand unfinished work back
	// before losing contact instead of silently dropping it.
	Handover bool
	// EdgeTier marks this member as a roadside edge server (ETSI-MEC
	// style RSU): always in range, so the controller's dwell gate does
	// not apply to it. See edge.go.
	EdgeTier bool
	// StartDelay is added to every task before compute starts — the
	// offload round-trip an edge server pays per task. Zero for
	// ordinary vehicular members.
	StartDelay sim.Time
}

// runningTask is a task being executed locally.
type runningTask struct {
	task       Task
	attempt    int
	replica    int // the task's replica slot, echoed back to the controller
	controller vnet.Addr
	epoch      Epoch // dispatching controller's epoch, echoed in the result
	startedAt  sim.Time
	ops        float64 // ops this attempt started with
	doneEv     sim.EventID
}

// Member is the worker-side agent of a vehicular cloud: it joins
// controllers it hears, executes assigned tasks at its CPU rate, returns
// results, and — when configured — hands unfinished work back before
// departing (the §III.A mechanism E7 evaluates).
type Member struct {
	node    *vnet.Node
	cfg     MemberConfig
	stats   *Stats
	current map[TaskID]*runningTask
	// ids is sortedIDs' reused buffer.
	ids []TaskID
	// controller is the most recently heard coordinator.
	controller    vnet.Addr
	controllerAt  sim.Time
	emergencyMode bool
	ticker        *sim.Ticker
	stopped       bool
	// authz tracks per-controller authorization: absent = not attempted,
	// false = pending or denied, true = authorized.
	authz map[vnet.Addr]bool
	// lead is the member side of the leadership core: the epoch
	// watermark and the standby checkpoint (see leadership.go).
	lead follower
	// tamper, when non-nil, rewrites the computed result value before it
	// is sent — the Byzantine-worker hook (internal/attack.Byzantify).
	tamper func(Task, uint64) uint64
	// d is the deployment that started the agent (nil for a standalone
	// one, such as an edge server).
	d *Deployment
}

// NewMember creates and starts a member agent on node.
func NewMember(node *vnet.Node, cfg MemberConfig, stats *Stats) (*Member, error) {
	if node == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: node and stats must not be nil")
	}
	if cfg.CPU <= 0 {
		return nil, fmt.Errorf("vcloud: member CPU must be positive, got %v", cfg.CPU)
	}
	m := &Member{
		node:       node,
		cfg:        cfg,
		stats:      stats,
		current:    make(map[TaskID]*runningTask),
		controller: -1,
		authz:      make(map[vnet.Addr]bool),
		lead:       newFollower(),
	}
	m.handle(true)
	t, err := node.Kernel().Every(checkPeriod, m.tick)
	if err != nil {
		return nil, err
	}
	m.ticker = t
	return m, nil
}

// Stop halts the member; running work is abandoned (counted as waste).
// It detaches every handler, so none checks stopped.
func (m *Member) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.ticker.Stop()
	m.handle(false)
	for _, id := range m.sortedIDs() {
		rt := m.current[id]
		m.node.Kernel().Cancel(rt.doneEv)
		m.stats.WastedOps += m.executedOps(rt)
	}
	m.current = make(map[TaskID]*runningTask)
}

// handle attaches (on) or detaches every message handler the member
// serves, like Controller.handle.
func (m *Member) handle(on bool) {
	kinds := [...]string{kindAdv, kindTask, kindCkpt}
	fns := [...]vnet.Handler{m.onAdv, m.onTask, m.onCkpt}
	for i, kind := range kinds {
		if !on {
			fns[i] = nil
		}
		m.node.Handle(kind, fns[i])
	}
}

// sortedIDs lists the running tasks in ascending ID order, in a buffer
// the member reuses. Float sums over m.current run in this order: float
// addition is not associative, and a map-ordered sum could start a task
// a nanosecond apart between two runs of one seed.
func (m *Member) sortedIDs() []TaskID {
	m.ids = m.ids[:0]
	for id := range m.current {
		m.ids = append(m.ids, id)
	}
	slices.Sort(m.ids)
	return m.ids
}

// queuedOps is the unexecuted work of every running task but skip — what
// a newly started task waits behind.
func (m *Member) queuedOps(skip *runningTask) float64 {
	var queued float64
	for _, id := range m.sortedIDs() {
		if rt := m.current[id]; rt != skip {
			queued += rt.ops - m.executedOps(rt)
		}
	}
	return queued
}

// Controller returns the currently followed controller address (-1 when
// none).
func (m *Member) Controller() vnet.Addr { return m.controller }

// Emergency reports whether the last advertisement carried the emergency
// flag.
func (m *Member) Emergency() bool { return m.emergencyMode }

func (m *Member) onAdv(msg vnet.Message, _ vnet.Addr) {
	adv, ok := msg.Payload.(advMsg)
	if !ok {
		return
	}
	now := m.node.Kernel().Now()
	// Follow the first controller heard; switch only after silence —
	// unless the core says a newer leadership generation preempts.
	follow := m.controller < 0 || m.controller == adv.Controller || now-m.controllerAt > 5*time.Second
	follow, acks := m.lead.onAdv(m.node.Addr(), adv, follow)
	sendAcks(m.node, acks...)
	m.emergencyMode = adv.Emergency
	if !follow {
		return
	}
	m.controller = adv.Controller
	m.controllerAt = now
	if d := m.d; d != nil && !adv.Epoch.Zero() && d.cfg.Controller.Trace != nil {
		d.cfg.Controller.Trace(trace.Event{At: now, Kind: trace.Accept, Node: int32(m.node.Addr()),
			Epoch: adv.Epoch.Counter, A: int64(adv.Controller), B: int64(adv.Epoch.Claimant)})
	}
	m.join()
}

// witness admits a message stamped with epoch e, counting and refusing
// (false) one from a generation below the member's watermark.
func (m *Member) witness(e Epoch) bool {
	if m.lead.admit(e) {
		return true
	}
	m.stats.StaleRejected.Inc()
	return false
}

func (m *Member) join() {
	ctl := m.controller
	if sec := m.d.secure(); sec != nil {
		authorized, attempted := m.authz[ctl]
		if !attempted {
			m.authz[ctl] = false // pending
			sec.authorize(m.node.Addr(), ctl, func(ok bool) {
				if m.stopped {
					return
				}
				if !ok {
					delete(m.authz, ctl) // allow retry on next adv
					return
				}
				m.authz[ctl] = true
				m.sendJoin(ctl)
			})
			return
		}
		if !authorized {
			return // handshake pending or denied
		}
	}
	m.sendJoin(ctl)
}

func (m *Member) sendJoin(ctl vnet.Addr) {
	msg := m.node.NewMessage(ctl, kindJoin, 128, 1, joinMsg{
		CPU:   m.cfg.CPU,
		Edge:  m.cfg.EdgeTier,
		Delay: m.cfg.StartDelay,
	})
	m.node.SendTo(ctl, msg)
}

func (m *Member) executedOps(rt *runningTask) float64 {
	elapsed := (m.node.Kernel().Now() - rt.startedAt).Seconds()
	done := elapsed * m.cfg.CPU
	if done > rt.ops {
		done = rt.ops
	}
	if done < 0 {
		done = 0
	}
	return done
}

func (m *Member) onTask(msg vnet.Message, _ vnet.Addr) {
	tm, ok := msg.Payload.(taskMsg)
	if !ok {
		return
	}
	// Fencing: refuse dispatches from a leadership generation below the
	// highest we have witnessed — the sender was superseded and may not
	// know it yet (the split-brain double-dispatch fencing eliminates).
	if !m.witness(tm.Epoch) {
		return
	}
	// Queue behind current work: start when all current tasks finish.
	// The controller's load view approximates the same queue.
	queued := m.queuedOps(nil)
	rt := &runningTask{
		task:       tm.Task,
		attempt:    tm.Attempt,
		replica:    tm.Replica,
		controller: msg.Origin,
		epoch:      tm.Epoch,
		ops:        tm.RemainingOps,
	}
	m.current[tm.Task.ID] = rt
	wait := m.cfg.StartDelay + sim.Time(queued/m.cfg.CPU*float64(time.Second))
	rt.startedAt = m.node.Kernel().Now() + wait
	runFor := wait + sim.Time(tm.RemainingOps/m.cfg.CPU*float64(time.Second))
	rt.doneEv = m.node.Kernel().After(runFor, func() { m.complete(rt) })
}

func (m *Member) complete(rt *runningTask) {
	if m.stopped {
		return
	}
	// Pointer equality, not mere presence: a replacement copy of the same
	// task may have overwritten our entry, and this stale completion must
	// not evict it.
	if m.current[rt.task.ID] != rt {
		return
	}
	delete(m.current, rt.task.ID)
	var value uint64
	if b := rt.task.Stage; b != nil {
		// Stage result: digest of the stage identity and the inputs the
		// dispatch carried.
		value = StageDigest(b.Job, b.Stage, rt.task.Ops, b.Inputs)
	} else {
		value = TaskValue(rt.task)
	}
	if m.tamper != nil {
		value = m.tamper(rt.task, value)
	}
	msg := m.node.NewMessage(rt.controller, kindResult, 64+rt.task.OutputBytes, 1, resultMsg{
		ID:      rt.task.ID,
		Attempt: rt.attempt,
		Replica: rt.replica,
		Value:   value,
		Epoch:   rt.epoch,
	})
	m.node.SendTo(rt.controller, msg)
}

// SetResultTamper installs (or clears, with nil) a hook that rewrites
// this member's computed result values before they are sent — the
// fault-injection point for Byzantine-worker experiments.
func (m *Member) SetResultTamper(f func(Task, uint64) uint64) { m.tamper = f }

// Addr returns the member's network address.
func (m *Member) Addr() vnet.Addr { return m.node.Addr() }

// onCkpt hands a replicated checkpoint to the core (a corrupt one is
// counted and dropped); a valid one also proves its controller alive.
func (m *Member) onCkpt(msg vnet.Message, _ vnet.Addr) {
	ck, ok := decodeCkpt(msg, m.stats)
	if !ok {
		return
	}
	isStale, acks := m.lead.onCkpt(msg.Origin, ck)
	if isStale {
		m.stats.StaleRejected.Inc()
	} else if m.controller == msg.Origin {
		m.controllerAt = m.node.Kernel().Now()
	}
	sendAcks(m.node, acks...)
}

// promote turns this member into the cloud's controller: the member
// agent stops (abandoning local work as waste, like any departure) and
// its deployment starts a controller seeded from the replicated
// checkpoint on the same node, resuming the in-flight task table. A
// standalone agent's successor runs under an empty deployment: default
// configuration, no hooks, and tracked nowhere.
func (m *Member) promote(ckpt Checkpoint) {
	m.Stop()
	d := m.d
	if d == nil {
		d = &Deployment{Stats: m.stats}
	}
	d.promote(m.node, &ckpt)
}

// tick checks the failover condition first, then for imminent departure,
// handing work over when the remaining contact window cannot cover the
// remaining compute.
func (m *Member) tick() {
	if m.stopped {
		return
	}
	if ckpt, ok := m.lead.promote(m.controller, m.node.Kernel().Now()-m.controllerAt); ok {
		m.promote(ckpt)
		return
	}
	if !m.cfg.Handover || len(m.current) == 0 {
		return
	}
	window, ok := m.d.contactLeft(m)
	if !ok {
		return
	}
	// Iterate in task-ID order: handover message order must not depend
	// on map iteration, or runs stop reproducing.
	for _, id := range m.sortedIDs() {
		rt := m.current[id]
		remaining := rt.ops - m.executedOps(rt)
		needed := remaining / m.cfg.CPU
		if window > needed+1.0 {
			continue // still time to finish
		}
		// Hand the remainder back to the controller.
		m.node.Kernel().Cancel(rt.doneEv)
		delete(m.current, id)
		msg := m.node.NewMessage(rt.controller, kindHandover, 128, 1, handoverMsg{
			ID:           id,
			RemainingOps: remaining,
			Attempt:      rt.attempt,
			Replica:      rt.replica,
			Epoch:        rt.epoch,
		})
		m.node.SendTo(rt.controller, msg)
	}
}
