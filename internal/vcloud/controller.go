package vcloud

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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

// joinMsg announces a member and its CPU. Edge and Delay mark an
// RSU edge server (see edge.go); they ride every join, so the edge
// capacity/latency model survives controller failover without touching
// the checkpoint codec.
type joinMsg struct {
	CPU   float64
	Edge  bool
	Delay sim.Time
}

// taskMsg assigns (or re-assigns) work.
type taskMsg struct {
	Task Task
	// RemainingOps carries partial progress on handover reassignment
	// (== Task.Ops on first assignment).
	RemainingOps float64
	Attempt      int
	// Replica indexes the task's copy (its replica slot); the member
	// echoes it back so the controller can match votes to slots.
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
	Submitted metrics.Counter
	Completed metrics.Counter
	Failed    metrics.Counter
	Retries   metrics.Counter
	Handovers metrics.Counter
	WastedOps float64 // ops executed and then lost
	Latency   metrics.Histogram
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
	// DAG job engine counters (PR 7).
	JobsSubmitted   metrics.Counter
	JobsCompleted   metrics.Counter
	JobsPartial     metrics.Counter
	JobsFailed      metrics.Counter
	JobsResumed     metrics.Counter
	JobRestarts     metrics.Counter
	StagesAbandoned metrics.Counter
	StageRetries    metrics.Counter
	// OpsDispatched accumulates every op handed to a worker (first
	// dispatches, retries, redundant replicas, handover re-dispatches) —
	// the denominator of E15's wasted-work accounting.
	OpsDispatched float64
	// Congestion-aware placement counters (PR 8). AdmissionRejects counts
	// governor admission refusals; Backpressured counts submissions
	// bounced off full tier queues; Shed counts optional work dropped
	// under overload; TierSwitches counts the governor changing its
	// preferred tier (hysteresis keeps this low).
	AdmissionRejects metrics.Counter
	Backpressured    metrics.Counter
	Shed             metrics.Counter
	TierSwitches     metrics.Counter
}

// CompletionRate returns completed/submitted.
func (s *Stats) CompletionRate() float64 {
	return metrics.Ratio(s.Completed.Value(), s.Submitted.Value())
}

// dwellEstimator predicts how many seconds a member will remain usable
// by the cloud (see mobility.EstimateDwell). Infinity means "parked".
type dwellEstimator func(member vnet.Addr) float64

// Controller timings. Every deployment runs the same ones, so a
// checkpoint need not carry them.
const (
	// advPeriod is the advertisement broadcast interval.
	advPeriod = time.Second
	// memberTTL expires silent members.
	memberTTL = 3 * advPeriod
)

// ControllerConfig tunes a cloud controller.
type ControllerConfig struct {
	// Trace, when non-nil, receives every trace event of the controllers
	// the deployment starts, successors included, and of its members.
	Trace trace.Sink
	// Depend is the dependability policy (redundant replicas, voting,
	// backoff retries) of every task that does not carry its own
	// Task.Depend override. Nil means the default policy: one copy,
	// three retries, 500 ms jittered backoff.
	Depend *DependabilityPolicy
	// Fencing enables split-brain-safe leadership, and with it failover
	// (DeployConfig.Failover): the controller carries a monotonically
	// increasing epoch on every advertisement, checkpoint, dispatch and
	// result; members reject stale epochs; a controller that hears a
	// superseding rival abdicates and ships its state for merge
	// reconciliation; and finished outcomes are applied only after the
	// armed standby acknowledges a checkpoint carrying them (see
	// leadership.go). Off by default — zero epochs keep every legacy code
	// path bit-for-bit identical. A checkpoint is fenced exactly when its
	// epoch is non-zero, so the flag never rides one.
	Fencing bool
	// Workers, when non-nil, is the execution-trust engine: replica
	// placement excludes workers scoring below the policy's
	// TrustThreshold, votes may be trust-weighted, and vote outcomes
	// feed evidence back (the Fig. 3 loop). It holds a clock closure,
	// so it does not ride checkpoints; a deployment's failover successor
	// shares the deployment's engine, and with it the trust view its
	// predecessor built.
	Workers *trust.WorkerSet
}

type memberInfo struct {
	addr     vnet.Addr
	cpu      float64
	lastSeen sim.Time
	// queuedOps is the controller's view of outstanding work.
	queuedOps float64
	// edge marks an ETSI-MEC-style RSU edge server: fixed
	// infrastructure, so dwell checks always pass, at the cost of a
	// per-task processing delay added to its finish estimate.
	edge  bool
	delay sim.Time
}

// roster is the controller's member table: one row per member in
// ascending address order, so every walk over it is deterministic
// without a sort and a lookup is a binary search. Addresses are sparse
// (RSUs start at scenario.RSUBase), which rules out a dense table.
type roster []*memberInfo

// search returns where a's row is, or would be inserted, and whether it
// is there.
func (r roster) search(a vnet.Addr) (int, bool) {
	lo, hi := 0, len(r)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if r[h].addr < a {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(r) && r[lo].addr == a
}

// get returns a's row, or nil when a is no member.
func (r roster) get(a vnet.Addr) *memberInfo {
	if i, ok := r.search(a); ok {
		return r[i]
	}
	return nil
}

// add returns a's row, inserting a blank one in order when a is new.
func (r *roster) add(a vnet.Addr) (m *memberInfo, added bool) {
	i, ok := r.search(a)
	if ok {
		return (*r)[i], false
	}
	m = &memberInfo{addr: a}
	*r = slices.Insert(*r, i, m)
	return m, true
}

type taskState struct {
	task Task
	// remainingOps is what a new copy is dispatched with: Task.Ops, or
	// the remainder a handover returned when no member could take it.
	remainingOps float64
	attempt      int
	handovers    int
	retries      int
	submitted    sim.Time
	done         func(TaskResult)

	// Dependable-execution state (see depend.go); policy is never nil.
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
	members roster
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
	// d is the deployment that started the controller (nil for a
	// standalone one).
	d *Deployment
	// dwell is the scheduler's dwell-time signal, centered on the
	// controller's node, which the deployment fills in (see
	// Deployment.dwellFor); nil means "assume everyone stays forever"
	// (the naive baseline E7 ablates).
	dwell dwellEstimator

	// picks and skip are placeReplicas' scratch: its running picks and
	// the members a dispatch passes over (see depend.go).
	picks []placeCand
	skip  []vnet.Addr

	// lead is the controller side of the leadership core: standby,
	// checkpoint cadence, epoch, lease and the applied ledger (see
	// leadership.go).
	lead leader

	emergency bool
	stopped   bool
}

// newController creates and starts a controller on node in the given
// leadership mode (see modeOf).
func newController(node *vnet.Node, cfg ControllerConfig, stats *Stats, mode leaderMode) (*Controller, error) {
	if node == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: node and stats must not be nil")
	}
	if cfg.Depend != nil {
		if err := cfg.Depend.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Controller{
		node:  node,
		cfg:   cfg,
		stats: stats,
		tasks: make(map[TaskID]*taskState),
		jobs:  make(map[JobID]*jobState),
		rng:   node.Kernel().NewStream(fmt.Sprintf("vcloud.depend.%d", node.Addr())),
		lead:  newLeader(node.Addr(), mode),
	}
	c.handle(true)
	t, err := node.Kernel().Every(advPeriod, c.tick)
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
	for _, id := range sortedKeys(c.tasks) {
		c.finish(c.tasks[id], false, ReasonControllerStopped, 0)
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
		for _, slot := range ts.replicas {
			c.node.Kernel().Cancel(slot.timeout)
		}
	}
}

// halt flips the stopped flag, stops the ticker and detaches handlers.
func (c *Controller) halt() {
	c.stopped = true
	c.ticker.Stop()
	c.handle(false)
}

// handle attaches (on) or detaches every message handler the controller
// serves; a fenced one also hears rival advertisements, checkpoints,
// acks and merges. A halted controller hears nothing, so no handler
// checks stopped.
func (c *Controller) handle(on bool) {
	kinds := []string{kindJoin, kindResult, kindHandover, kindAdv, kindMerge, kindCkptAck, kindCkpt}
	fns := []vnet.Handler{c.onJoin, c.onResult, c.onHandover, c.onRivalAdv, c.onMerge, c.onCkptAck, c.onRivalCkpt}
	if !c.lead.fenced() {
		kinds = kinds[:3]
	}
	for i, kind := range kinds {
		if !on {
			fns[i] = nil
		}
		c.node.Handle(kind, fns[i])
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
	out := make([]vnet.Addr, len(c.members))
	for i, m := range c.members {
		out[i] = m.addr
	}
	return out
}

// sortedKeys lists m's keys in ascending order: map order must never
// leak into what the controller sends or applies.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SetEmergency flips emergency mode; the flag propagates to members in
// advertisements (§V.A: the authority switches an area into emergency
// mode).
func (c *Controller) SetEmergency(on bool) { c.emergency = on }

func (c *Controller) tick() {
	if c.stopped {
		return
	}
	// Expire silent members and immediately reassign their outstanding
	// work — waiting out the generous per-task timeout would leave tasks
	// parked on a vanished vehicle for tens of seconds (§III.A waste).
	now := c.node.Kernel().Now()
	// Compacting the roster in place and in order lists expired ascending.
	var expired []vnet.Addr
	kept := c.members[:0]
	for _, m := range c.members {
		if now-m.lastSeen > memberTTL {
			expired = append(expired, m.addr)
		} else {
			kept = append(kept, m)
		}
	}
	clear(c.members[len(kept):])
	c.members = kept
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
	lost, ckpt := c.lead.tick(now, c.standbyCandidate(now))
	if lost {
		// The cloud is now one controller crash away from losing its task
		// table: surface that instead of silently no-oping.
		c.stats.StandbyLost.Inc()
		c.emit(trace.StandbyLost, 0, 0, 0)
	}
	c.advertise()
	if ckpt {
		c.sendCheckpoint()
	}
}

// advertise broadcasts the controller's presence.
func (c *Controller) advertise() {
	adv := c.node.NewMessage(vnet.BroadcastAddr, kindAdv, 64, 1, advMsg{
		Controller: c.node.Addr(),
		Emergency:  c.emergency,
		Standby:    c.lead.standby,
		Epoch:      c.lead.epoch,
	})
	c.node.BroadcastLocal(adv)
}

// reassignOrphans fails every replica the vanished member held and lets
// the vote (or a retry round) take it from there.
func (c *Controller) reassignOrphans(gone vnet.Addr) {
	var ids []TaskID
	for id, ts := range c.tasks {
		for _, slot := range ts.replicas {
			if slot.assignee == gone && !slot.resolved() {
				ids = append(ids, id)
				break
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if ts, live := c.tasks[id]; live {
			c.expireReplicas(ts, gone)
		}
	}
}

func (c *Controller) onJoin(msg vnet.Message, _ vnet.Addr) {
	jm, ok := msg.Payload.(joinMsg)
	if !ok {
		return
	}
	if !c.d.admits(c.node.Addr(), msg.Origin) {
		return
	}
	m, _ := c.members.add(msg.Origin)
	m.cpu = jm.CPU
	m.edge = jm.Edge
	m.delay = jm.Delay
	m.lastSeen = c.node.Kernel().Now()
}

// Submit enters a task into the cloud. done fires exactly once.
func (c *Controller) Submit(task Task, done func(TaskResult)) (TaskID, error) {
	if c.stopped {
		return 0, fmt.Errorf("vcloud: controller stopped")
	}
	if err := task.Validate(); err != nil {
		return 0, err
	}
	if err := c.lead.lease(c.node.Kernel().Now()); err != nil {
		return 0, err
	}
	c.nextID++
	task.ID = epochTaskID(c.lead.epoch.Counter, c.nextID)
	ts := &taskState{
		task:         task,
		remainingOps: task.Ops,
		submitted:    c.node.Kernel().Now(),
		done:         done,
		policy:       c.effectivePolicy(task),
	}
	c.tasks[task.ID] = ts
	c.stats.Submitted.Inc()
	// Deadline-aware fail-fast: a deadline no eligible member could meet
	// is rejected immediately instead of burning a doomed timeout. The
	// finish runs on the next kernel tick, not inside Submit: callers
	// (the DAG engine included) record the returned TaskID to route the
	// outcome, so finishing before Submit returns would strand it.
	if c.failFastDeadline(task) {
		id := task.ID
		c.node.Kernel().After(0, func() {
			if ts, live := c.tasks[id]; live {
				c.finish(ts, false, ReasonDeadline, 0)
			}
		})
		return task.ID, nil
	}
	c.dispatchReplicas(ts, ts.policy.Replicas)
	return task.ID, nil
}

// onResult takes one replica's vote.
func (c *Controller) onResult(msg vnet.Message, _ vnet.Addr) {
	rm, ok := msg.Payload.(resultMsg)
	if !ok {
		return
	}
	ts, live := c.tasks[rm.ID]
	if !live || rm.Replica < 0 || rm.Replica >= len(ts.replicas) {
		return
	}
	slot := ts.replicas[rm.Replica]
	if slot.resolved() || rm.Attempt != slot.attempt || msg.Origin != slot.assignee {
		return // stale echo from a superseded attempt
	}
	c.node.Kernel().Cancel(slot.timeout)
	c.releaseSlot(slot)
	slot.voted = true
	slot.value = rm.Value
	c.maybeDecide(ts)
}

// onHandover moves one replica's remaining work to a fresh member when
// its worker announces departure. With no member to take it, the
// remainder stays with the task, and the next round dispatches only it.
func (c *Controller) onHandover(msg vnet.Message, _ vnet.Addr) {
	hm, ok := msg.Payload.(handoverMsg)
	if !ok {
		return
	}
	ts, live := c.tasks[hm.ID]
	if !live || hm.Replica < 0 || hm.Replica >= len(ts.replicas) {
		return
	}
	slot := ts.replicas[hm.Replica]
	if slot.resolved() || hm.Attempt != slot.attempt || msg.Origin != slot.assignee {
		return
	}
	c.node.Kernel().Cancel(slot.timeout)
	c.releaseSlot(slot)
	slot.failed = true // the old slot closes; the remainder goes on elsewhere
	ts.handovers++
	c.stats.Handovers.Inc()
	c.emit(trace.Handover, hm.ID, int64(msg.Origin), int64(hm.RemainingOps))
	// Re-place the remainder on a member not already holding a copy.
	c.skip = insertAddr(ts.assignees(c.skip[:0], true), msg.Origin)
	picks := c.placeReplicas(ts, 1, hm.RemainingOps, c.skip, false)
	if len(picks) == 0 {
		ts.remainingOps = hm.RemainingOps
		c.maybeDecide(ts)
		return
	}
	c.dispatchOneReplica(ts, picks[0].addr, hm.RemainingOps)
}

// finish settles ts on value: it releases every replica the task still
// holds and applies (or parks) the outcome.
func (c *Controller) finish(ts *taskState, ok bool, reason FailReason, value uint64) {
	id := ts.task.ID
	if _, live := c.tasks[id]; !live {
		// Tripwire for the "no task both completed and failed" invariant:
		// a second finish means two code paths both claimed the task.
		c.violations = append(c.violations, fmt.Sprintf("task %d finished twice (ok=%v reason=%q)", id, ok, reason))
		return
	}
	c.releaseReplicas(ts)
	ts.value = value
	delete(c.tasks, id)
	now := c.node.Kernel().Now()
	c.emit(trace.Finish, id, bit(ok), int64(now-ts.submitted))
	e := &parkedEntry{
		po: ParkedOutcome{
			Task:      ts.task,
			OK:        ok,
			Reason:    reason,
			Value:     ts.value,
			Voters:    ts.voters,
			Retries:   ts.retries,
			Handovers: ts.handovers,
			Submitted: ts.submitted,
		},
		done:     ts.done,
		replicas: len(ts.replicas),
	}
	if c.settle(e) {
		c.emit(trace.Park, id, int64(e.po.Seq), 0)
	}
}

// emit hands a task event to the deployment's trace sink (task 0 for a
// controller-wide one); with no sink it is a nil check, inlined at the
// call site.
func (c *Controller) emit(k trace.Kind, task TaskID, a, b int64) {
	if c.cfg.Trace != nil {
		c.stamp(k, task, 0, 0, a, b)
	}
}

// emitJob is emit for an event of a job or one of its stages.
func (c *Controller) emitJob(k trace.Kind, job JobID, stage int, a, b int64) {
	if c.cfg.Trace != nil {
		c.stamp(k, 0, job, stage, a, b)
	}
}

// stamp hands the sink its event, stamped with the controller's clock,
// address and epoch.
func (c *Controller) stamp(k trace.Kind, task TaskID, job JobID, stage int, a, b int64) {
	c.cfg.Trace(trace.Event{At: c.node.Kernel().Now(), Kind: k, Node: int32(c.node.Addr()),
		Task: uint64(task), Job: uint64(job), Stage: int32(stage), Epoch: c.lead.epoch.Counter, A: a, B: b})
}

// bit is a trace event's encoding of a flag.
func bit(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

// settle parks a finished outcome until the standbys ack it (see
// leader.park), or applies it; a stopping controller applies at once,
// since the flush machinery dies with it. Reports whether e parked.
func (c *Controller) settle(e *parkedEntry) bool {
	if !c.stopped && c.lead.park(e) {
		return true
	}
	c.applyEntry(e)
	return false
}
