package vcloud

import (
	"fmt"
	"sort"
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// checkPeriod is the member's departure-check interval.
const checkPeriod = time.Second

// MemberConfig tunes a member agent.
type MemberConfig struct {
	// Resources contributed to the pool.
	Resources Resources
	// Handover, when true, lets the member hand unfinished work back
	// before losing contact instead of silently dropping it.
	Handover bool
	// DepartureWarning predicts how many seconds of controller contact
	// remain; the member hands work over when this drops below the time
	// needed to finish. Nil disables proactive handover (the member then
	// only reacts to total controller loss).
	DepartureWarning func() float64
	// Authorize, when non-nil, gates joining a new controller: the
	// member calls it once per controller and only sends its join after
	// done(true) — secure v-cloud initialization (§V.A), typically a
	// mutual authentication handshake.
	Authorize func(controller vnet.Addr, done func(ok bool))
	// BatteryOps bounds the total ops a parked-and-off vehicle can
	// execute before its battery budget is spent (Hou et al. [9]:
	// "to save the battery run time, the computing power and the time
	// length of providing services must be limited"). Zero means
	// unlimited (engine running / plugged in). When the budget is
	// exhausted the member leaves the cloud and stops accepting work.
	BatteryOps float64
	// OnPromote, when non-nil, is called after this member promotes
	// itself to controller from a replicated checkpoint (failover). The
	// deployment wires this to track the successor controller.
	OnPromote func(c *Controller)
	// OnAccept, when non-nil, observes every fenced advertisement this
	// member accepts leadership from — the hook the chaos harness uses
	// to assert "at most one controller accepted per epoch".
	OnAccept func(controller vnet.Addr, e Epoch)
	// EdgeTier marks this member as a roadside edge server (ETSI-MEC
	// style RSU): always in range, so the controller's dwell gate does
	// not apply to it. See edge.go.
	EdgeTier bool
	// StartDelay is added to every task before compute starts — the
	// offload round-trip an edge server pays per task. Zero for
	// ordinary vehicular members.
	StartDelay sim.Time
	// EstimateFeeds, when non-empty, makes this member a congestion
	// scout: each tick it reports every feed's live channel conditions
	// to its controller, feeding the placement governor's per-tier
	// estimate table (estimates.go).
	EstimateFeeds []EstimateFeed
}

// runningTask is a task being executed locally.
type runningTask struct {
	task       Task
	attempt    int
	replica    int // redundant-copy index (-1 on the plain path)
	controller vnet.Addr
	epoch      Epoch // dispatching controller's epoch, echoed in the result
	startedAt  sim.Time
	ops        float64 // ops this attempt started with
	doneEv     sim.EventID
	// fetching marks a stage task still gathering predecessor outputs
	// (no compute started yet, so it contributes no executed ops).
	fetching bool
	// stageInputs are the pulled predecessor values, in Deps order.
	stageInputs []uint64
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
	// controller is the most recently heard coordinator.
	controller    vnet.Addr
	controllerAt  sim.Time
	emergencyMode bool
	ticker        *sim.Ticker
	stopped       bool
	// authz tracks per-controller authorization: absent = not attempted,
	// false = pending or denied, true = authorized.
	authz map[vnet.Addr]bool
	// spentOps accumulates executed work against the battery budget.
	spentOps float64
	depleted bool
	// standbyCkpt is the latest replicated checkpoint when this member is
	// the designated failover standby; standbyFrom is the controller that
	// sent it (-1 when not a standby).
	standbyCkpt *Checkpoint
	standbyFrom vnet.Addr
	// tamper, when non-nil, rewrites the computed result value before it
	// is sent — the Byzantine-worker hook (internal/attack.Byzantify).
	tamper func(Task, uint64) uint64
	// highestEpoch is the highest fencing token this member has
	// witnessed; advertisements, dispatches and checkpoints from a lower
	// counter are stale and rejected.
	highestEpoch Epoch
	// cache holds stage outputs this member computed or pulled, served
	// to downstream stage workers (see stagepipe.go).
	cache *stageCache
	// fetches tracks stage tasks still gathering their inputs.
	fetches map[TaskID]*stageFetch
	// estimateSeq orders this member's channel-condition reports.
	estimateSeq uint64
}

// NewMember creates and starts a member agent on node.
func NewMember(node *vnet.Node, cfg MemberConfig, stats *Stats) (*Member, error) {
	if node == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: node and stats must not be nil")
	}
	if cfg.Resources.CPU <= 0 {
		return nil, fmt.Errorf("vcloud: member CPU must be positive, got %v", cfg.Resources.CPU)
	}
	m := &Member{
		node:        node,
		cfg:         cfg,
		stats:       stats,
		current:     make(map[TaskID]*runningTask),
		controller:  -1,
		authz:       make(map[vnet.Addr]bool),
		standbyFrom: -1,
		cache:       newStageCache(),
		fetches:     make(map[TaskID]*stageFetch),
	}
	node.Handle(kindAdv, m.onAdv)
	node.Handle(kindTask, m.onTask)
	node.Handle(kindCkpt, m.onCkpt)
	node.Handle(kindStagePull, m.onStagePull)
	node.Handle(kindStageData, m.onStageData)
	t, err := node.Kernel().Every(checkPeriod, m.tick)
	if err != nil {
		return nil, err
	}
	m.ticker = t
	return m, nil
}

// Stop halts the member; running work is abandoned (counted as waste).
func (m *Member) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.ticker.Stop()
	m.node.Handle(kindAdv, nil)
	m.node.Handle(kindTask, nil)
	m.node.Handle(kindCkpt, nil)
	m.node.Handle(kindStagePull, nil)
	m.node.Handle(kindStageData, nil)
	for _, f := range m.fetches {
		m.node.Kernel().Cancel(f.timeout)
	}
	m.fetches = make(map[TaskID]*stageFetch)
	for _, rt := range m.current {
		m.node.Kernel().Cancel(rt.doneEv)
		m.stats.WastedOps += m.executedOps(rt)
	}
	m.current = make(map[TaskID]*runningTask)
}

// Controller returns the currently followed controller address (-1 when
// none).
func (m *Member) Controller() vnet.Addr { return m.controller }

// Emergency reports whether the last advertisement carried the emergency
// flag.
func (m *Member) Emergency() bool { return m.emergencyMode }

// Running returns the number of tasks executing locally.
func (m *Member) Running() int { return len(m.current) }

func (m *Member) onAdv(msg vnet.Message, _ vnet.Addr) {
	if m.stopped || m.depleted {
		return
	}
	adv, ok := msg.Payload.(advMsg)
	if !ok {
		return
	}
	// Deposed as standby: a fresher advertisement names someone else.
	if m.standbyFrom == adv.Controller && adv.Standby != m.node.Addr() {
		m.disarm(adv.Controller)
	}
	m.emergencyMode = adv.Emergency
	now := m.node.Kernel().Now()
	// Follow the first controller heard; switch only after silence.
	follow := m.controller < 0 || m.controller == adv.Controller || now-m.controllerAt > 5*time.Second
	e := adv.Epoch
	switch {
	case e.Supersedes(m.highestEpoch):
		// A newer leadership generation preempts whoever we currently
		// follow — immediately, not after silence: its predecessor is
		// fenced off the moment we witness the higher counter.
		m.highestEpoch = e
		// A standby checkpoint from the superseded generation is now a
		// replay hazard: its task table may list work the new generation
		// already applied, so promoting from it later would re-execute
		// and double-apply those outcomes. Drop it; the disarm-ack also
		// unsticks the deposed controller's parked outcomes (and carries
		// the epoch that deposed it).
		if m.standbyCkpt != nil && e.Supersedes(m.standbyCkpt.Epoch) {
			m.disarm(m.standbyFrom, adv.Controller)
		}
		follow = true
	case !e.Zero() && m.highestEpoch.Supersedes(e):
		// Stale generation. Follow it only if our controller has gone
		// silent — the higher-epoch controller may be gone for good, and
		// a stale-but-alive coordinator beats none (liveness). Lowering
		// the watermark re-admits its dispatches.
		if !follow {
			return
		}
		m.highestEpoch = e
	}
	if follow {
		m.controller = adv.Controller
		m.controllerAt = now
		if !e.Zero() && m.cfg.OnAccept != nil {
			m.cfg.OnAccept(adv.Controller, e)
		}
		m.join()
	}
}

// disarm discards the standby checkpoint; when the checkpoint came from
// a fenced controller, a disarm-ack releases each named controller's
// apply-after-ack hold (the armer may be parking outcomes on our
// account, and a successor may have inherited that obligation — both
// need to hear we can no longer promote).
func (m *Member) disarm(ctls ...vnet.Addr) {
	ck := m.standbyCkpt
	m.standbyCkpt = nil
	m.standbyFrom = -1
	if ck == nil || !ck.Cfg.Fencing {
		return
	}
	sent := map[vnet.Addr]bool{}
	for _, ctl := range ctls {
		if ctl < 0 || sent[ctl] {
			continue
		}
		sent[ctl] = true
		ack := m.node.NewMessage(ctl, kindCkptAck, 64, 1, ackMsg{
			Seq:    ck.Seq,
			Disarm: true,
			Known:  m.highestEpoch,
		})
		m.node.SendTo(ctl, ack)
	}
}

func (m *Member) join() {
	ctl := m.controller
	if m.cfg.Authorize != nil {
		authorized, attempted := m.authz[ctl]
		if !attempted {
			m.authz[ctl] = false // pending
			m.cfg.Authorize(ctl, func(ok bool) {
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
		Resources: m.cfg.Resources,
		Edge:      m.cfg.EdgeTier,
		Delay:     m.cfg.StartDelay,
	})
	m.node.SendTo(ctl, msg)
}

// Leave tells the controller this member is gone (graceful departure).
func (m *Member) Leave() {
	if m.controller < 0 {
		return
	}
	msg := m.node.NewMessage(m.controller, kindLeave, 32, 1, nil)
	m.node.SendTo(m.controller, msg)
}

func (m *Member) executedOps(rt *runningTask) float64 {
	if rt.fetching {
		return 0 // still gathering inputs: no compute spent yet
	}
	elapsed := (m.node.Kernel().Now() - rt.startedAt).Seconds()
	done := elapsed * m.cfg.Resources.CPU
	if done > rt.ops {
		done = rt.ops
	}
	if done < 0 {
		done = 0
	}
	return done
}

func (m *Member) onTask(msg vnet.Message, _ vnet.Addr) {
	if m.stopped || m.depleted {
		return
	}
	tm, ok := msg.Payload.(taskMsg)
	if !ok {
		return
	}
	// Fencing: refuse dispatches from a leadership generation below the
	// highest we have witnessed — the sender was superseded and may not
	// know it yet (the split-brain double-dispatch this PR eliminates).
	if !tm.Epoch.Zero() {
		if m.highestEpoch.Supersedes(tm.Epoch) {
			m.stats.StaleRejected.Inc()
			return
		}
		if tm.Epoch.Supersedes(m.highestEpoch) {
			m.highestEpoch = tm.Epoch
		}
	}
	if m.cfg.BatteryOps > 0 {
		committed := m.spentOps
		for _, rt := range m.current {
			committed += rt.ops
		}
		if committed+tm.RemainingOps > m.cfg.BatteryOps {
			// Not enough battery to finish: decline silently; the
			// controller times out and reassigns elsewhere.
			return
		}
	}
	// Queue behind current work: start when all current tasks finish.
	// The controller's load view approximates the same queue.
	var queued float64
	for _, rt := range m.current {
		queued += rt.ops - m.executedOps(rt)
	}
	rt := &runningTask{
		task:       tm.Task,
		attempt:    tm.Attempt,
		replica:    tm.Replica,
		controller: msg.Origin,
		epoch:      tm.Epoch,
		ops:        tm.RemainingOps,
	}
	m.current[tm.Task.ID] = rt
	// A stage task with predecessor inputs gathers them first (see
	// stagepipe.go); compute is scheduled when the last input lands.
	if b := tm.Task.Stage; b != nil && len(b.Inputs) > 0 {
		m.startStageFetch(rt)
		return
	}
	wait := m.cfg.StartDelay + sim.Time(queued/m.cfg.Resources.CPU*float64(time.Second))
	rt.startedAt = m.node.Kernel().Now() + wait
	runFor := wait + sim.Time(tm.RemainingOps/m.cfg.Resources.CPU*float64(time.Second))
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
	m.spentOps += rt.ops
	var value uint64
	if b := rt.task.Stage; b != nil {
		// Stage result: digest of the stage identity and pulled inputs,
		// cached so downstream stage workers can pull it from here.
		value = StageDigest(b.Job, b.Stage, rt.task.Ops, rt.stageInputs)
	} else {
		value = TaskValue(rt.task)
	}
	if m.tamper != nil {
		value = m.tamper(rt.task, value)
	}
	if b := rt.task.Stage; b != nil {
		// Cache the (possibly tampered) value: a Byzantine member serves
		// downstream exactly what it voted, so provenance rotation plus
		// voting can catch it.
		m.cache.put(stageKey{job: b.Job, stage: b.Stage}, stageEntry{value: value, bytes: b.OutputBytes})
	}
	msg := m.node.NewMessage(rt.controller, kindResult, 64+rt.task.OutputBytes, 1, resultMsg{
		ID:      rt.task.ID,
		Attempt: rt.attempt,
		Replica: rt.replica,
		Value:   value,
		Epoch:   rt.epoch,
	})
	m.node.SendTo(rt.controller, msg)
	if m.cfg.BatteryOps > 0 && m.spentOps >= m.cfg.BatteryOps {
		m.deplete()
	}
}

// SetResultTamper installs (or clears, with nil) a hook that rewrites
// this member's computed result values before they are sent — the
// fault-injection point for Byzantine-worker experiments.
func (m *Member) SetResultTamper(f func(Task, uint64) uint64) { m.tamper = f }

// Addr returns the member's network address.
func (m *Member) Addr() vnet.Addr { return m.node.Addr() }

// onCkpt decodes a replicated checkpoint: accepting one designates this
// member as the controller's failover standby. A corrupt checkpoint is
// rejected with a counter bump — this member will never promote itself
// into a garbage state. A valid checkpoint also proves the controller
// is alive, refreshing the silence clock, and (under fencing) is
// acknowledged so the controller may apply the outcomes it carries.
func (m *Member) onCkpt(msg vnet.Message, _ vnet.Addr) {
	if m.stopped || m.depleted {
		return
	}
	cm, ok := msg.Payload.(ckptMsg)
	if !ok {
		return
	}
	ck, err := DecodeCheckpoint(cm.Data)
	if err != nil {
		m.stats.CkptRejected.Inc()
		return
	}
	// Fencing: a checkpoint from a superseded leadership generation must
	// not make us its standby — refuse the role with a disarm-ack so the
	// stale controller's parked outcomes do not stall forever (the Known
	// epoch also tells it it was deposed).
	if !ck.Epoch.Zero() {
		if m.highestEpoch.Supersedes(ck.Epoch) {
			m.stats.StaleRejected.Inc()
			// The disarm must be truthful: drop any checkpoint this (now
			// superseded) controller armed us with earlier, or we could
			// later promote from it and replay a task table whose
			// outcomes the controller applied once we disarmed it.
			if m.standbyFrom == msg.Origin {
				m.standbyCkpt = nil
				m.standbyFrom = -1
			}
			ack := m.node.NewMessage(msg.Origin, kindCkptAck, 64, 1, ackMsg{
				Seq:    ck.Seq,
				Disarm: true,
				Known:  m.highestEpoch,
			})
			m.node.SendTo(msg.Origin, ack)
			return
		}
		if ck.Epoch.Supersedes(m.highestEpoch) {
			m.highestEpoch = ck.Epoch
		}
	}
	m.standbyCkpt = &ck
	m.standbyFrom = msg.Origin
	if m.controller == msg.Origin {
		m.controllerAt = m.node.Kernel().Now()
	}
	if ck.Cfg.Fencing {
		ack := m.node.NewMessage(msg.Origin, kindCkptAck, 64, 1, ackMsg{
			Seq:   ck.Seq,
			Known: m.highestEpoch,
		})
		m.node.SendTo(msg.Origin, ack)
	}
}

// Standby reports whether this member currently holds a checkpoint as
// the designated failover successor.
func (m *Member) Standby() bool { return m.standbyCkpt != nil }

// maybePromote checks the failover condition — we hold a checkpoint and
// the controller that sent it has been silent past its FailoverTTL —
// and promotes this member to controller when it holds. Reports whether
// a promotion happened (the member is stopped afterwards).
func (m *Member) maybePromote() bool {
	if m.standbyCkpt == nil || m.depleted || m.controller != m.standbyFrom {
		return false
	}
	if m.node.Kernel().Now()-m.controllerAt <= m.standbyCkpt.FailoverTTL {
		return false
	}
	m.promote()
	return true
}

// promote turns this member into the cloud's controller: the member
// agent stops (abandoning local work as waste, like any departure) and a
// controller seeded from the replicated checkpoint starts on the same
// node, resuming the in-flight task table.
func (m *Member) promote() {
	ckpt := *m.standbyCkpt
	m.standbyCkpt = nil
	m.standbyFrom = -1
	// Promote past every epoch this member has witnessed, not just the
	// checkpoint's: a higher-epoch controller may have lived (and
	// applied outcomes) since the checkpoint was cut.
	if ckpt.Cfg.Fencing && m.highestEpoch.Counter > ckpt.Epoch.Counter {
		ckpt.Epoch.Counter = m.highestEpoch.Counter
	}
	node, stats, onPromote := m.node, m.stats, m.cfg.OnPromote
	m.Stop()
	c, err := RestoreController(node, ckpt, stats)
	if err != nil {
		return
	}
	stats.Failovers.Inc()
	if onPromote != nil {
		onPromote(c)
	}
}

// deplete powers the member down for cloud purposes: it leaves the
// controller and ignores further work, preserving battery for the
// owner's return.
func (m *Member) deplete() {
	if m.depleted {
		return
	}
	m.depleted = true
	m.Leave()
}

// Depleted reports whether the battery budget is spent.
func (m *Member) Depleted() bool { return m.depleted }

// SpentOps returns the executed work counted against the battery.
func (m *Member) SpentOps() float64 { return m.spentOps }

// tick checks the failover condition first, then for imminent departure,
// handing work over when the remaining contact window cannot cover the
// remaining compute.
func (m *Member) tick() {
	if m.stopped {
		return
	}
	if m.maybePromote() {
		return
	}
	m.reportEstimates()
	if !m.cfg.Handover || m.cfg.DepartureWarning == nil || len(m.current) == 0 {
		return
	}
	window := m.cfg.DepartureWarning()
	// Iterate in task-ID order: handover message order must not depend
	// on map iteration, or runs stop reproducing.
	ids := make([]TaskID, 0, len(m.current))
	for id := range m.current {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rt := m.current[id]
		if rt.fetching {
			// No compute spent yet: let the controller's attempt timeout
			// reassign instead of handing over an unstarted stage.
			continue
		}
		remaining := rt.ops - m.executedOps(rt)
		needed := remaining / m.cfg.Resources.CPU
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
