package vcloud

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"vcloud/internal/metrics"
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/trust"
	"vcloud/internal/vnet"
)

// Protocol message kinds.
const (
	kindAdv      = "vc.adv"
	kindJoin     = "vc.join"
	kindLeave    = "vc.leave"
	kindTask     = "vc.task"
	kindResult   = "vc.result"
	kindHandover = "vc.handover"
	kindCkpt     = "vc.ckpt"
)

// advMsg is the controller's periodic advertisement.
type advMsg struct {
	Controller vnet.Addr
	Emergency  bool
	// Standby is the designated failover successor (-1 when none); it is
	// broadcast so a deposed standby knows to discard its checkpoint.
	Standby vnet.Addr
	// Epoch is the advertiser's fencing token (zero when unfenced).
	Epoch Epoch
}

// joinMsg announces a member and its resources. Edge and Delay mark an
// RSU edge server (see edge.go); they ride every join, so the edge
// capacity/latency model survives controller failover without touching
// the checkpoint codec.
type joinMsg struct {
	Resources Resources
	Edge      bool
	Delay     sim.Time
}

// taskMsg assigns (or re-assigns) work.
type taskMsg struct {
	Task Task
	// RemainingOps carries partial progress on handover reassignment
	// (== Task.Ops on first assignment).
	RemainingOps float64
	Attempt      int
	// Replica indexes the redundant copy under a dependability policy
	// (-1 on the plain single-copy path); the member echoes it back so
	// the controller can match votes to slots.
	Replica int
	// Epoch fences the dispatch: members reject a task from an epoch
	// below the highest they have witnessed (zero when unfenced).
	Epoch Epoch
}

// resultMsg returns a finished task.
type resultMsg struct {
	ID      TaskID
	Attempt int
	Replica int
	// Value is the worker's computed result (TaskValue for honest
	// workers); the redundant-execution vote compares these.
	Value uint64
	// Epoch echoes the dispatching controller's epoch back with the
	// result (zero when the dispatch was unfenced).
	Epoch Epoch
}

// handoverMsg returns unfinished work for reassignment.
type handoverMsg struct {
	ID           TaskID
	RemainingOps float64
	Attempt      int
	Replica      int
	// Epoch echoes the dispatching controller's epoch.
	Epoch Epoch
}

// Stats aggregates cloud outcomes for the experiments.
type Stats struct {
	Submitted  metrics.Counter
	Completed  metrics.Counter
	Failed     metrics.Counter
	Retries    metrics.Counter
	Handovers  metrics.Counter
	WastedOps  float64 // ops executed and then lost
	Latency    metrics.Histogram
	JoinEvents metrics.Counter
	// Failovers counts standby self-promotions; Resumed counts in-flight
	// tasks a promoted controller restored from a checkpoint.
	Failovers metrics.Counter
	Resumed   metrics.Counter
	// ReplicaDispatches counts redundant copies sent under a
	// dependability policy; WrongVotes counts votes that lost to the
	// majority value; NoQuorum counts vote rounds that could not reach a
	// strict majority.
	ReplicaDispatches metrics.Counter
	WrongVotes        metrics.Counter
	NoQuorum          metrics.Counter
	// Split-brain fencing counters (PR 3). Abdications counts controllers
	// that stood down on hearing a superseding epoch; Merges counts
	// reconciliations received from abdicating rivals; Adopted counts
	// orphaned in-flight tasks re-adopted during a merge; Deduped counts
	// duplicate outcomes suppressed by the (task, epoch) applied ledger;
	// StaleRejected counts fenced messages members refused for carrying
	// an outdated epoch; CkptRejected counts corrupt checkpoints the
	// decoder refused; StandbyLost counts transitions into a
	// standby-less state while failover was enabled (the cloud is one
	// controller crash away from losing its task table).
	Abdications   metrics.Counter
	Merges        metrics.Counter
	Adopted       metrics.Counter
	Deduped       metrics.Counter
	StaleRejected metrics.Counter
	CkptRejected  metrics.Counter
	StandbyLost   metrics.Counter
	// DAG job engine counters (PR 7). StageRelays counts controller-
	// mediated input handoffs (the fallback path); StageHandoffs counts
	// member-to-member pulls served without a controller round-trip.
	JobsSubmitted    metrics.Counter
	JobsCompleted    metrics.Counter
	JobsPartial      metrics.Counter
	JobsFailed       metrics.Counter
	JobsResumed      metrics.Counter
	JobRestarts      metrics.Counter
	StagesDispatched metrics.Counter
	StagesCompleted  metrics.Counter
	StagesAbandoned  metrics.Counter
	StageRetries     metrics.Counter
	StageRelays      metrics.Counter
	StageHandoffs    metrics.Counter
	// OpsDispatched accumulates every op handed to a worker (first
	// dispatches, retries, redundant replicas, handover re-dispatches) —
	// the denominator of E15's wasted-work accounting.
	OpsDispatched float64
	// Congestion-aware placement counters (PR 8). EstimateReports counts
	// accepted tier-condition reports; EstimateStale counts reports
	// fenced out for carrying a deposed leader's epoch; Admitted /
	// AdmissionRejects split governor admission decisions; Backpressured
	// counts submissions bounced off full tier queues; Shed counts
	// optional work dropped under overload; TierSwitches counts the
	// governor changing its preferred tier (hysteresis keeps this low).
	EstimateReports  metrics.Counter
	EstimateStale    metrics.Counter
	Admitted         metrics.Counter
	AdmissionRejects metrics.Counter
	Backpressured    metrics.Counter
	Shed             metrics.Counter
	TierSwitches     metrics.Counter
}

// JobCompletionRate returns completed/submitted for DAG jobs.
func (s *Stats) JobCompletionRate() float64 {
	return metrics.Ratio(s.JobsCompleted.Value(), s.JobsSubmitted.Value())
}

// CompletionRate returns completed/submitted.
func (s *Stats) CompletionRate() float64 {
	return metrics.Ratio(s.Completed.Value(), s.Submitted.Value())
}

// DwellEstimator predicts how many seconds a member will remain usable
// by the cloud (see mobility.EstimateDwell). Infinity means "parked".
type DwellEstimator func(member vnet.Addr) float64

// ControllerConfig tunes a cloud controller.
type ControllerConfig struct {
	// AdvPeriod is the advertisement broadcast interval. Default 1 s.
	AdvPeriod sim.Time
	// MemberTTL expires silent members. Default 3×AdvPeriod.
	MemberTTL sim.Time
	// Dwell is the scheduler's dwell-time signal; nil means "assume
	// everyone stays forever" (the naive baseline E7 ablates).
	Dwell DwellEstimator
	// DwellMargin multiplies the estimated runtime when testing dwell
	// sufficiency. Default 1.2.
	DwellMargin float64
	// RetryLimit bounds reassignments per task. Default 3.
	RetryLimit int
	// Handover enables partial-work transfer; when false, a departing
	// member's work is simply lost (drop-and-resubmit baseline).
	Handover bool
	// AcceptJoin, when non-nil, gates membership: joins from members for
	// which it returns false are ignored. Secure clouds wire this to the
	// authenticator's verified-peer set (§V.A).
	AcceptJoin func(member vnet.Addr) bool
	// Ledger, when non-nil, enables the incentive mechanism: on task
	// completion the submitter's account pays the final worker
	// PricePerKOps credits per 1000 ops.
	Ledger *Ledger
	// PricePerKOps is the task price in credits per kOp. Default 1.
	PricePerKOps int64
	// Trace, when non-nil, records task lifecycle events for post-run
	// debugging (nil-safe; see internal/trace).
	Trace *trace.Recorder
	// Failover enables checkpoint replication to a standby member and the
	// standby's self-promotion when this controller goes silent — the
	// dependability mechanism E11 measures. Off by default.
	Failover bool
	// CheckpointPeriod is the replication interval. Default 2×AdvPeriod.
	CheckpointPeriod sim.Time
	// FailoverTTL is how long the standby tolerates advertisement silence
	// before promoting itself. Default 4×AdvPeriod.
	FailoverTTL sim.Time
	// Depend, when non-nil, applies a dependability policy (redundant
	// replicas, voting, backoff retries) to every task that does not
	// carry its own Task.Depend override. Nil keeps the plain
	// single-copy path.
	Depend *DependabilityPolicy
	// Fencing enables split-brain-safe leadership: the controller
	// carries a monotonically increasing epoch on every advertisement,
	// checkpoint, dispatch and result; members reject stale epochs; a
	// controller that hears a superseding rival abdicates and ships its
	// state for merge reconciliation; and finished outcomes are applied
	// only after the armed standby acknowledges a checkpoint carrying
	// them (see merge.go). Off by default — zero epochs keep every
	// legacy code path bit-for-bit identical.
	Fencing bool
	// OnApply, when non-nil, observes every applied task outcome with
	// the applying controller's epoch counter — the hook the chaos
	// harness uses to assert "no task outcome applied twice across
	// epochs". Stripped from checkpoints.
	OnApply func(id TaskID, epoch uint64, ok bool)
	// OnAbdicate, when non-nil, is called after this controller stands
	// down in favor of a superseding rival; the deployment wires this to
	// re-attach a member agent on the node. Stripped from checkpoints.
	OnAbdicate func(c *Controller)
	// Workers, when non-nil, is the execution-trust engine: replica
	// placement excludes workers scoring below the policy's
	// TrustThreshold, votes may be trust-weighted, and vote outcomes
	// feed evidence back (the Fig. 3 loop). It holds a clock closure,
	// so it is stripped from checkpoints — a failover successor starts
	// with a fresh trust view.
	Workers *trust.WorkerSet
}

type memberInfo struct {
	res      Resources
	lastSeen sim.Time
	// queuedOps is the controller's view of outstanding work.
	queuedOps float64
	// edge marks an ETSI-MEC-style RSU edge server: fixed
	// infrastructure, so dwell checks always pass, at the cost of a
	// per-task processing delay added to its finish estimate.
	edge  bool
	delay sim.Time
}

type taskState struct {
	task         Task
	client       vnet.Addr
	remainingOps float64
	assignee     vnet.Addr
	attempt      int
	handovers    int
	retries      int
	submitted    sim.Time
	timeout      sim.EventID
	done         func(TaskResult)

	// Dependable-execution state (policy non-nil switches the task onto
	// the replicated path; see depend.go).
	policy       *DependabilityPolicy
	replicas     []*replicaSlot
	round        int
	roundPending bool
	value        uint64
	voters       []vnet.Addr
}

// Controller coordinates one vehicular cloud: membership, task
// allocation, result aggregation and the management plane. It runs on
// whatever node the architecture designates (parked gateway, RSU, or
// cluster head).
type Controller struct {
	node    *vnet.Node
	cfg     ControllerConfig
	stats   *Stats
	members map[vnet.Addr]*memberInfo
	tasks   map[TaskID]*taskState
	nextID  TaskID
	// DAG job engine state (see dagsched.go).
	jobs      map[JobID]*jobState
	nextJobID TaskID
	ticker    *sim.Ticker
	// rng feeds the dependability layer's backoff jitter; it is a named
	// kernel stream, so retry timing reproduces bit-for-bit per seed.
	rng *rand.Rand
	// violations accumulates internal-consistency breaches (double
	// finish, stuck task) for the chaos soak to assert empty.
	violations []string
	// storage is the attached data-service backend (nil when none); see
	// storage.go for the churn-driven repair wiring.
	storage storageBackend
	// estimates is the per-tier congestion table fed by member reports
	// (estimates.go); checkpointed, so a promoted standby inherits it.
	estimates [NumTiers]TierEstimate

	// standby is the designated failover successor (-1 when none).
	standby  vnet.Addr
	ckptSeq  uint64
	lastCkpt sim.Time

	// Fencing state (see merge.go). epoch is this controller's fencing
	// token; armed tracks every standby ever sent a checkpoint (it can
	// promote from its copy, so outcomes park until it acks or disarms)
	// with its highest acknowledged sequence and last-heard time — any
	// single armed standby going silent past FailoverTTL expires the
	// leadership lease; parked holds finished outcomes awaiting
	// acknowledgement, in checkpoint-seq order; applied/appliedOrder is
	// the capped (task, epoch) ledger enforcing exactly-once application.
	epoch        Epoch
	armed        map[vnet.Addr]armedStandby
	parked       []*parkedEntry
	applied      map[TaskID]uint64
	appliedOrder []TaskID

	emergency bool
	stopped   bool
}

// NewController creates and starts a controller on node.
func NewController(node *vnet.Node, cfg ControllerConfig, stats *Stats) (*Controller, error) {
	if node == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: node and stats must not be nil")
	}
	if cfg.AdvPeriod <= 0 {
		cfg.AdvPeriod = time.Second
	}
	if cfg.MemberTTL <= 0 {
		cfg.MemberTTL = 3 * cfg.AdvPeriod
	}
	if cfg.DwellMargin <= 0 {
		cfg.DwellMargin = 1.2
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = 3
	}
	if cfg.Ledger != nil && cfg.PricePerKOps <= 0 {
		cfg.PricePerKOps = 1
	}
	if cfg.CheckpointPeriod <= 0 {
		cfg.CheckpointPeriod = 2 * cfg.AdvPeriod
	}
	if cfg.FailoverTTL <= 0 {
		cfg.FailoverTTL = 4 * cfg.AdvPeriod
	}
	if cfg.Depend != nil {
		if err := cfg.Depend.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Controller{
		node:    node,
		cfg:     cfg,
		stats:   stats,
		members: make(map[vnet.Addr]*memberInfo),
		tasks:   make(map[TaskID]*taskState),
		jobs:    make(map[JobID]*jobState),
		standby: -1,
		rng:     node.Kernel().NewStream(fmt.Sprintf("vcloud.depend.%d", node.Addr())),
	}
	node.Handle(kindJoin, c.onJoin)
	node.Handle(kindLeave, c.onLeave)
	node.Handle(kindResult, c.onResult)
	node.Handle(kindHandover, c.onHandover)
	node.Handle(kindStageRelay, c.onStageRelay)
	node.Handle(kindEstimate, c.onEstimate)
	if cfg.Fencing {
		c.epoch = NextEpoch(0, node.Addr())
		c.armed = make(map[vnet.Addr]armedStandby)
		c.applied = make(map[TaskID]uint64)
		node.Handle(kindAdv, c.onRivalAdv)
		node.Handle(kindMerge, c.onMerge)
		node.Handle(kindCkptAck, c.onCkptAck)
		node.Handle(kindCkpt, c.onRivalCkpt)
	}
	t, err := node.Kernel().Every(cfg.AdvPeriod, c.tick)
	if err != nil {
		return nil, err
	}
	c.ticker = t
	return c, nil
}

// Stop halts the controller gracefully. Pending tasks fail (their done
// callbacks fire with OK=false).
func (c *Controller) Stop() {
	if c.stopped {
		return
	}
	c.halt()
	ids := make([]TaskID, 0, len(c.tasks))
	for id := range c.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts := c.tasks[id]
		c.node.Kernel().Cancel(ts.timeout)
		for _, slot := range ts.replicas {
			c.node.Kernel().Cancel(slot.timeout)
		}
		c.finish(id, ts, false, ReasonControllerStopped)
	}
	c.failAllJobs(ReasonControllerStopped)
}

// Crash halts the controller abruptly, as a process failure would: no
// pending task is failed, no callback fires — from the outside the
// controller simply goes silent. Without failover the in-flight task
// table dies with it; a replicated standby resumes it (the contrast E11
// measures).
func (c *Controller) Crash() {
	if c.stopped {
		return
	}
	c.halt()
	for _, ts := range c.tasks {
		c.node.Kernel().Cancel(ts.timeout)
		for _, slot := range ts.replicas {
			c.node.Kernel().Cancel(slot.timeout)
		}
	}
}

// halt flips the stopped flag, stops the ticker and detaches handlers.
func (c *Controller) halt() {
	c.stopped = true
	c.ticker.Stop()
	c.node.Handle(kindJoin, nil)
	c.node.Handle(kindLeave, nil)
	c.node.Handle(kindResult, nil)
	c.node.Handle(kindHandover, nil)
	c.node.Handle(kindStageRelay, nil)
	c.node.Handle(kindEstimate, nil)
	if c.cfg.Fencing {
		c.node.Handle(kindAdv, nil)
		c.node.Handle(kindMerge, nil)
		c.node.Handle(kindCkptAck, nil)
		c.node.Handle(kindCkpt, nil)
	}
}

// Addr returns the controller's network address.
func (c *Controller) Addr() vnet.Addr { return c.node.Addr() }

// Stopped reports whether the controller has been stopped or crashed.
func (c *Controller) Stopped() bool { return c.stopped }

// NumMembers returns the live member count.
func (c *Controller) NumMembers() int { return len(c.members) }

// Members returns the live member addresses, sorted.
func (c *Controller) Members() []vnet.Addr {
	out := make([]vnet.Addr, 0, len(c.members))
	for a := range c.members {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetEmergency flips emergency mode; the flag propagates to members in
// advertisements (§V.A: the authority switches an area into emergency
// mode).
func (c *Controller) SetEmergency(on bool) { c.emergency = on }

// Emergency reports the management-plane emergency flag.
func (c *Controller) Emergency() bool { return c.emergency }

// Snapshot returns the controller's current membership view — the §V.A
// "recover the snapshot of the topology" management operation.
func (c *Controller) Snapshot() map[vnet.Addr]Resources {
	out := make(map[vnet.Addr]Resources, len(c.members))
	for a, m := range c.members {
		out[a] = m.res
	}
	return out
}

func (c *Controller) tick() {
	if c.stopped {
		return
	}
	// Expire silent members and immediately reassign their outstanding
	// work — waiting out the generous per-task timeout would leave tasks
	// parked on a vanished vehicle for tens of seconds (§III.A waste).
	now := c.node.Kernel().Now()
	var expired []vnet.Addr
	for a, m := range c.members {
		if now-m.lastSeen > c.cfg.MemberTTL {
			expired = append(expired, a)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, a := range expired {
		delete(c.members, a)
	}
	for _, a := range expired {
		c.reassignOrphans(a)
	}
	if len(expired) > 0 {
		// Expired members may hold storage copies the service can no
		// longer reach: re-replicate from the survivors right away.
		c.repairStorage()
	}
	// (Re)designate the standby before advertising so the advertisement
	// carries the current designation.
	if c.cfg.Failover {
		c.refreshStandby(now)
	}
	c.advertise()
	if c.cfg.Failover && c.standby >= 0 && now-c.lastCkpt >= c.cfg.CheckpointPeriod {
		c.sendCheckpoint(now)
	}
}

// advertise broadcasts the controller's presence.
func (c *Controller) advertise() {
	adv := c.node.NewMessage(vnet.BroadcastAddr, kindAdv, 64, 1, advMsg{
		Controller: c.node.Addr(),
		Emergency:  c.emergency,
		Standby:    c.standby,
		Epoch:      c.epoch,
	})
	c.node.BroadcastLocal(adv)
}

// reassignOrphans moves every task actively assigned to the vanished
// member back into scheduling. Tasks waiting in the no-member retry loop
// are skipped (their pending After callback re-runs assign itself).
func (c *Controller) reassignOrphans(gone vnet.Addr) {
	// Dependable tasks: fail the vanished member's replicas and let the
	// vote (or a retry round) take it from there.
	var depIDs []TaskID
	for id, ts := range c.tasks {
		if ts.policy == nil {
			continue
		}
		for _, slot := range ts.replicas {
			if slot.assignee == gone && !slot.resolved() {
				depIDs = append(depIDs, id)
				break
			}
		}
	}
	sort.Slice(depIDs, func(i, j int) bool { return depIDs[i] < depIDs[j] })
	for _, id := range depIDs {
		if ts, live := c.tasks[id]; live {
			c.expireReplicas(ts, gone)
		}
	}

	var ids []TaskID
	for id, ts := range c.tasks {
		if ts.policy == nil && ts.assignee == gone && ts.timeout.Pending() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts := c.tasks[id]
		c.node.Kernel().Cancel(ts.timeout)
		// The member vanished silently: its partial work is lost.
		c.stats.WastedOps += ts.remainingOps
		c.cfg.Trace.Emit(c.node.Kernel().Now(), trace.CatCloud, int32(c.node.Addr()),
			"task %d orphaned by expired member %d, reassigning", id, gone)
		if ts.retries >= c.cfg.RetryLimit {
			c.finish(id, ts, false, ReasonRetriesExhausted)
			continue
		}
		ts.retries++
		c.stats.Retries.Inc()
		c.assign(ts)
	}
}

func (c *Controller) onJoin(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	jm, ok := msg.Payload.(joinMsg)
	if !ok {
		return
	}
	if c.cfg.AcceptJoin != nil && !c.cfg.AcceptJoin(msg.Origin) {
		return
	}
	m, exists := c.members[msg.Origin]
	if !exists {
		m = &memberInfo{}
		c.members[msg.Origin] = m
		c.stats.JoinEvents.Inc()
	}
	m.res = jm.Resources
	m.edge = jm.Edge
	m.delay = jm.Delay
	m.lastSeen = c.node.Kernel().Now()
}

func (c *Controller) onLeave(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	delete(c.members, msg.Origin)
	// A graceful leave is permanent departure: the leaver's storage goes
	// with it — forget its copies and repair from the survivors.
	c.forgetStorage(msg.Origin)
}

// Submit enters a task into the cloud on the controller's own account.
// done fires exactly once.
func (c *Controller) Submit(task Task, done func(TaskResult)) (TaskID, error) {
	return c.SubmitFor(c.node.Addr(), task, done)
}

// SubmitFor enters a task charged to the given client account (the
// incentive mechanism's payer when a ledger is configured).
func (c *Controller) SubmitFor(client vnet.Addr, task Task, done func(TaskResult)) (TaskID, error) {
	if c.stopped {
		return 0, fmt.Errorf("vcloud: controller stopped")
	}
	if err := task.Validate(); err != nil {
		return 0, err
	}
	// Lease expiry: an armed standby has not acknowledged a checkpoint
	// within FailoverTTL, so it may already have promoted on the far
	// side of a partition. Refuse new work rather than double-dispatch
	// it — safety over availability until the partition resolves.
	if c.leaseExpired(c.node.Kernel().Now()) {
		return 0, fmt.Errorf("vcloud: leadership lease expired (standby unreachable)")
	}
	c.nextID++
	task.ID = epochTaskID(c.epoch.Counter, c.nextID)
	ts := &taskState{
		task:         task,
		client:       client,
		remainingOps: task.Ops,
		submitted:    c.node.Kernel().Now(),
		done:         done,
		policy:       c.effectivePolicy(task),
	}
	c.tasks[task.ID] = ts
	c.stats.Submitted.Inc()
	// Deadline-aware fail-fast: a deadline no eligible member could meet
	// is rejected immediately instead of burning a doomed timeout. The
	// finish runs on the next kernel tick, not inside SubmitFor: callers
	// (the DAG engine included) record the returned TaskID to route the
	// outcome, so finishing before SubmitFor returns would strand it.
	if c.failFastDeadline(task) {
		id := task.ID
		c.node.Kernel().After(0, func() {
			if ts, live := c.tasks[id]; live {
				c.finish(id, ts, false, ReasonDeadline)
			}
		})
		return task.ID, nil
	}
	c.launch(ts)
	return task.ID, nil
}

// pickMember chooses a worker for ts: among fresh members with the
// needed sensor, prefer those whose estimated dwell covers the estimated
// completion time (runtime + queue) with margin; break ties by earliest
// completion. Returns false when no member exists at all.
func (c *Controller) pickMember(ts *taskState) (vnet.Addr, bool) {
	now := c.node.Kernel().Now()
	var p placement
	for a, m := range c.members {
		if now-m.lastSeen > c.cfg.MemberTTL {
			continue
		}
		if m.res.CPU <= 0 || !m.res.HasSensor(ts.task.NeedsSensor) {
			continue
		}
		if a == ts.assignee && ts.attempt > 0 {
			// Don't immediately re-pick the worker that just failed or
			// handed the task back.
			continue
		}
		runtime := (m.queuedOps + ts.remainingOps) / m.res.CPU
		// Edge servers are fixed infrastructure: dwell always suffices.
		hasDwell := true
		if c.cfg.Dwell != nil && !m.edge {
			hasDwell = c.cfg.Dwell(a) >= runtime*c.cfg.DwellMargin
		}
		p.offer(placeCand{addr: a, finish: runtime + m.delay.Seconds()}, hasDwell)
	}
	return p.pick()
}

func (c *Controller) assign(ts *taskState) {
	addr, found := c.pickMember(ts)
	if !found {
		// No members: retry shortly rather than failing outright (the
		// cloud may still be forming).
		if ts.retries >= c.cfg.RetryLimit {
			c.finish(ts.task.ID, ts, false, ReasonNoEligibleMember)
			return
		}
		ts.retries++
		c.stats.Retries.Inc()
		ts.roundPending = true
		c.node.Kernel().After(time.Second, func() {
			ts.roundPending = false
			if _, live := c.tasks[ts.task.ID]; live && !c.stopped {
				c.assign(ts)
			}
		})
		return
	}
	ts.assignee = addr
	ts.attempt++
	c.cfg.Trace.Emit(c.node.Kernel().Now(), trace.CatCloud, int32(c.node.Addr()),
		"task %d assign -> %d (attempt %d, %.0f ops left)", ts.task.ID, addr, ts.attempt, ts.remainingOps)
	m := c.members[addr]
	m.queuedOps += ts.remainingOps
	c.stats.OpsDispatched += ts.remainingOps
	msg := c.node.NewMessage(addr, kindTask, 64+ts.task.InputBytes, 1, taskMsg{
		Task:         ts.task,
		RemainingOps: ts.remainingOps,
		Attempt:      ts.attempt,
		Replica:      -1,
		Epoch:        c.epoch,
	})
	c.node.SendTo(addr, msg)

	// Timeout: generous multiple of the expected completion time.
	expect := (m.queuedOps)/m.res.CPU + 2.0
	deadline := sim.Time(expect*3*float64(time.Second)) + 2*time.Second
	attempt := ts.attempt
	ts.timeout = c.node.Kernel().After(deadline, func() {
		cur, live := c.tasks[ts.task.ID]
		if !live || cur != ts || ts.attempt != attempt || c.stopped {
			return
		}
		// The assignment died silently (member left range, frames lost):
		// all remaining work must be redone — this is the waste the
		// paper's §III.A argument quantifies.
		c.stats.WastedOps += ts.remainingOps
		c.releaseQueue(ts)
		if ts.retries >= c.cfg.RetryLimit {
			c.finish(ts.task.ID, ts, false, ReasonRetriesExhausted)
			return
		}
		ts.retries++
		c.stats.Retries.Inc()
		c.assign(ts)
	})
}

// releaseQueue removes the task's load from its assignee's book-keeping.
func (c *Controller) releaseQueue(ts *taskState) {
	if m, ok := c.members[ts.assignee]; ok {
		m.queuedOps -= ts.remainingOps
		if m.queuedOps < 0 {
			m.queuedOps = 0
		}
	}
}

func (c *Controller) onResult(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	rm, ok := msg.Payload.(resultMsg)
	if !ok {
		return
	}
	ts, live := c.tasks[rm.ID]
	if !live {
		return
	}
	if ts.policy != nil {
		c.onReplicaResult(ts, rm, msg.Origin)
		return
	}
	if rm.Attempt != ts.attempt || msg.Origin != ts.assignee {
		return // stale result from a superseded attempt
	}
	c.node.Kernel().Cancel(ts.timeout)
	c.releaseQueue(ts)
	ts.value = rm.Value
	ts.voters = []vnet.Addr{msg.Origin}
	if ts.task.Deadline > 0 && c.node.Kernel().Now() > ts.task.Deadline {
		c.finish(rm.ID, ts, false, ReasonDeadline)
		return
	}
	c.finish(rm.ID, ts, true, "")
}

func (c *Controller) onHandover(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	hm, ok := msg.Payload.(handoverMsg)
	if !ok {
		return
	}
	ts, live := c.tasks[hm.ID]
	if !live {
		return
	}
	if ts.policy != nil {
		c.onReplicaHandover(ts, hm, msg.Origin)
		return
	}
	if hm.Attempt != ts.attempt || msg.Origin != ts.assignee {
		return
	}
	c.node.Kernel().Cancel(ts.timeout)
	c.releaseQueue(ts)
	ts.remainingOps = hm.RemainingOps
	ts.handovers++
	c.stats.Handovers.Inc()
	c.cfg.Trace.Emit(c.node.Kernel().Now(), trace.CatCloud, int32(c.node.Addr()),
		"task %d handover from %d (%.0f ops left)", hm.ID, msg.Origin, hm.RemainingOps)
	c.assign(ts)
}

func (c *Controller) finish(id TaskID, ts *taskState, ok bool, reason FailReason) {
	if _, live := c.tasks[id]; !live {
		// Tripwire for the "no task both completed and failed" invariant:
		// a second finish means two code paths both claimed the task.
		c.violations = append(c.violations, fmt.Sprintf("task %d finished twice (ok=%v reason=%q)", id, ok, reason))
		return
	}
	delete(c.tasks, id)
	now := c.node.Kernel().Now()
	c.cfg.Trace.Emit(now, trace.CatCloud, int32(c.node.Addr()),
		"task %d finish ok=%v reason=%q latency=%v", id, ok, reason, now-ts.submitted)
	replicas := len(ts.replicas)
	if ts.policy == nil && ts.attempt > 0 {
		replicas = 1
	}
	e := &parkedEntry{
		po: ParkedOutcome{
			Task:      ts.task,
			Client:    ts.client,
			OK:        ok,
			Reason:    reason,
			Value:     ts.value,
			Voters:    ts.voters,
			Retries:   ts.retries,
			Handovers: ts.handovers,
			Submitted: ts.submitted,
		},
		done:      ts.done,
		replicas:  replicas,
		assignee:  ts.assignee,
		hasPolicy: ts.policy != nil,
	}
	// Apply-after-ack (fenced failover only): while any standby holds an
	// unacknowledged checkpoint copy of our state, applying immediately
	// could duplicate the outcome — the standby might promote from a
	// checkpoint that still lists this task as in flight. Park the
	// outcome until the next checkpoint carrying it is acknowledged;
	// with no standby armed nobody can promote a stale copy, so apply
	// directly (likewise when stopping — the flush machinery is dead).
	if c.cfg.Fencing && c.cfg.Failover && !c.stopped && len(c.armed) > 0 {
		e.po.Seq = c.ckptSeq + 1
		c.parked = append(c.parked, e)
		c.cfg.Trace.Emit(now, trace.CatCloud, int32(c.node.Addr()),
			"task %d outcome parked until ckpt %d acked", id, e.po.Seq)
		return
	}
	c.applyEntry(e)
}

// PendingTasks returns how many tasks are in flight.
func (c *Controller) PendingTasks() int { return len(c.tasks) }
