// Dependable task execution: the data-plane counterpart of the PR-1
// control-plane failover. The paper's §III/Fig. 3 dependability argument
// is that a vehicular cloud must keep producing *correct* results while
// its members are unreliable (churn, radio loss) or outright malicious
// (wrong results). The mechanism here is classical redundant execution:
// a per-task DependabilityPolicy makes the controller dispatch K copies
// of a task to disjoint members, collect the returned values, and decide
// by majority vote; workers whose votes lose feed negative evidence into
// the trust engine (internal/trust.WorkerSet), and workers below a trust
// threshold are excluded from future placement — closing the Fig. 3 loop
// placement → execution → voting → trust update → placement.
//
// Voting model. Every honest worker computes the same value for a task
// (TaskValue); a Byzantine worker returns something else (see
// internal/attack.Byzantify — wrong values are distinct per worker, the
// non-colluding model). The controller accepts a value as soon as
// ⌊K/2⌋+1 identical copies arrive (early quorum); once every replica has
// reported or failed it tallies all cast votes and accepts the plurality
// winner only with a strict majority (> half the cast weight). With
// trust weighting disabled, a decided result is correct whenever fewer
// than half of the cast votes came from Byzantine workers — the
// invariant the chaos soak (internal/chaos) asserts. Trust weighting
// lets accumulated reputation tip close votes, which helps once the
// trust engine has evidence but deliberately trades away that worst-case
// guarantee (a high-trust liar can outweigh two unknown honest workers),
// so the soak runs with it off and E12 measures it as a separate arm.
package vcloud

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vcloud/internal/mobility"
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vnet"
)

// DependabilityPolicy tunes redundant execution for one task (Task.Depend)
// or for every task a controller schedules (ControllerConfig.Depend). The
// zero value of each field means "use the default".
type DependabilityPolicy struct {
	// Replicas is K, the number of redundant copies dispatched to
	// disjoint members. Default 1 (no redundancy, but the retry/backoff
	// and fail-fast machinery still applies).
	Replicas int
	// MaxRetries bounds re-dispatch rounds after replica loss or a vote
	// that reaches no quorum. Default 3.
	MaxRetries int
	// RetryBackoff is the base delay before a re-dispatch round; round r
	// waits RetryBackoff · 2^r, jittered. Default 500 ms.
	RetryBackoff sim.Time
	// BackoffJitter spreads each backoff uniformly over
	// [1-j, 1+j] × delay, drawn from the controller's seeded stream so
	// runs reproduce bit-for-bit. Default 0.5; negative disables.
	BackoffJitter float64
	// AttemptTimeout bounds one replica's execution; zero keeps the
	// controller's generous load-derived timeout.
	AttemptTimeout sim.Time
	// TrustThreshold excludes workers scoring below it (per
	// ControllerConfig.Workers) from placement. Zero disables gating.
	TrustThreshold float64
	// TrustWeighted weights votes by worker trust score in the final
	// tally instead of counting heads. See the package comment for the
	// guarantee this trades away.
	TrustWeighted bool
}

// Validate checks policy sanity.
func (p *DependabilityPolicy) Validate() error {
	if p.Replicas < 0 {
		return fmt.Errorf("vcloud: policy replicas must be >= 0, got %d", p.Replicas)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("vcloud: policy max retries must be >= 0, got %d", p.MaxRetries)
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("vcloud: policy retry backoff must be >= 0, got %v", p.RetryBackoff)
	}
	if math.IsNaN(p.BackoffJitter) || p.BackoffJitter > 1 {
		return fmt.Errorf("vcloud: policy backoff jitter must be <= 1, got %v", p.BackoffJitter)
	}
	if math.IsNaN(p.TrustThreshold) || p.TrustThreshold < 0 || p.TrustThreshold >= 1 {
		return fmt.Errorf("vcloud: policy trust threshold must be in [0,1), got %v", p.TrustThreshold)
	}
	if p.AttemptTimeout < 0 {
		return fmt.Errorf("vcloud: policy attempt timeout must be >= 0, got %v", p.AttemptTimeout)
	}
	return nil
}

// withDefaults returns a copy with zero fields filled in.
func (p DependabilityPolicy) withDefaults() DependabilityPolicy {
	if p.Replicas == 0 {
		p.Replicas = 1
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.RetryBackoff == 0 {
		p.RetryBackoff = 500 * time.Millisecond
	}
	if p.BackoffJitter == 0 {
		p.BackoffJitter = 0.5
	}
	return p
}

// effectivePolicy resolves the policy for a task: the task's own
// override, else the controller default, else nil (plain path).
func (c *Controller) effectivePolicy(t Task) *DependabilityPolicy {
	src := t.Depend
	if src == nil {
		src = c.cfg.Depend
	}
	if src == nil {
		return nil
	}
	p := src.withDefaults()
	return &p
}

// replicaSlot tracks one redundant copy of a task.
type replicaSlot struct {
	assignee  vnet.Addr
	attempt   int
	remaining float64
	timeout   sim.EventID
	voted     bool
	failed    bool
	value     uint64
}

// resolved reports whether this slot can no longer contribute a vote.
func (r *replicaSlot) resolved() bool { return r.voted || r.failed }

// trustEligible reports whether the policy and trust engine admit addr
// as a worker.
func (c *Controller) trustEligible(p *DependabilityPolicy, addr vnet.Addr) bool {
	if c.cfg.Workers == nil || p.TrustThreshold <= 0 {
		return true
	}
	return c.cfg.Workers.Score(addr) >= p.TrustThreshold
}

// placeCand is one member weighed for a task or replica.
type placeCand struct {
	addr   vnet.Addr
	finish float64 // seconds until it would finish the work
	tier   int     // dwell tier; 0 outside DAG stage placement
}

// betterThan is the placement order: earliest finish, then the higher
// dwell tier, then the lower address. It is total, so the pick does not
// depend on the order members are visited in.
func (a placeCand) betterThan(b placeCand) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	if a.tier != b.tier {
		return a.tier > b.tier
	}
	return a.addr < b.addr
}

// placement is the running pick of both schedulers: the best candidate
// offered so far among members whose dwell covers the run and, apart,
// among the dwell-short ones, who are picked only when nobody's dwell
// suffices (best effort).
type placement struct {
	best, bestShort   placeCand
	found, foundShort bool
}

func (p *placement) offer(cd placeCand, hasDwell bool) {
	switch {
	case hasDwell && (!p.found || cd.betterThan(p.best)):
		p.best, p.found = cd, true
	case !hasDwell && (!p.foundShort || cd.betterThan(p.bestShort)):
		p.bestShort, p.foundShort = cd, true
	}
}

func (p *placement) pick() (vnet.Addr, bool) {
	if p.found {
		return p.best.addr, true
	}
	return p.bestShort.addr, p.foundShort
}

// pickReplicaMember chooses a worker for one replica: fresh, sensor-
// capable, above the trust threshold, and not in the exclude set
// (members already holding a copy of this task — disjointness). Among
// the eligible it prefers dwell-sufficient members and earliest finish,
// like the plain scheduler. Returns false when nobody qualifies.
//
//vcloudlint:hotpath once per replica of every task and DAG stage; keeps a running pick instead of building candidate pools
func (c *Controller) pickReplicaMember(ts *taskState, exclude map[vnet.Addr]bool, remaining float64) (vnet.Addr, bool) {
	now := c.node.Kernel().Now()
	// DAG stage placement layers two reliability weights on top of the
	// plain finish-time ranking (tentpole: stages placed "weighted by
	// predicted residual dwell time and trust score"): the finish
	// estimate is divided by the worker's Beta-reputation weight, and
	// finish ties break toward the higher dwell tier before the address.
	// Non-stage tasks keep the exact legacy ordering.
	stage := ts.task.Stage != nil
	var p placement
	for a, m := range c.members {
		if exclude[a] || now-m.lastSeen > c.cfg.MemberTTL {
			continue
		}
		if m.res.CPU <= 0 || !m.res.HasSensor(ts.task.NeedsSensor) {
			continue
		}
		if !c.trustEligible(ts.policy, a) {
			continue
		}
		runtime := (m.queuedOps + remaining) / m.res.CPU
		cd := placeCand{addr: a, finish: runtime + m.delay.Seconds()}
		// Edge servers are fixed infrastructure: dwell always suffices.
		dwell, hasDwell := math.Inf(1), true
		if c.cfg.Dwell != nil && !m.edge {
			//vcloudlint:allow hotalloc the deployment's estimator hook (arch.go wires mobility.EstimateDwell); TestPickReplicaAllocs holds the path at zero
			dwell = c.cfg.Dwell(a)
			hasDwell = dwell >= runtime*c.cfg.DwellMargin
		}
		if stage {
			cd.tier = mobility.DwellTier(dwell)
			if c.cfg.Workers != nil {
				cd.finish /= c.cfg.Workers.Weight(a)
			}
		}
		p.offer(cd, hasDwell)
	}
	return p.pick()
}

// launch routes a freshly submitted (or restored) task into either the
// plain single-copy path or the dependable replicated path.
func (c *Controller) launch(ts *taskState) {
	if ts.policy == nil {
		c.assign(ts)
		return
	}
	c.dispatchReplicas(ts, ts.policy.Replicas)
}

// liveAssignees returns the members currently holding an unresolved
// copy of ts (the disjointness exclusion set).
func (ts *taskState) liveAssignees() map[vnet.Addr]bool {
	out := make(map[vnet.Addr]bool)
	for _, r := range ts.replicas {
		if !r.resolved() {
			out[r.assignee] = true
		}
	}
	return out
}

// dispatchReplicas places up to need new copies of ts on disjoint
// members. Placement first excludes every member that ever held a copy;
// when that exhausts the pool it falls back to excluding only members
// holding a live copy (a worker that timed out may be retried — radio
// loss is transient). Dispatching fewer than need copies is fine: the
// vote decides over whatever reports, and maybeDecide tops the pool up
// on the retry path when no quorum forms.
func (c *Controller) dispatchReplicas(ts *taskState, need int) {
	everUsed := make(map[vnet.Addr]bool)
	for _, r := range ts.replicas {
		everUsed[r.assignee] = true
	}
	placed := 0
	for i := 0; i < need; i++ {
		addr, found := c.pickReplicaMember(ts, everUsed, ts.task.Ops)
		if !found {
			addr, found = c.pickReplicaMember(ts, ts.liveAssignees(), ts.task.Ops)
		}
		if !found {
			break
		}
		everUsed[addr] = true
		c.dispatchOneReplica(ts, addr, ts.task.Ops)
		placed++
	}
	if placed == 0 {
		// Nobody eligible right now (cloud still forming, or the trust
		// gate emptied the pool): treat like the plain path's no-member
		// case and come back after a backoff round.
		c.scheduleRetryRound(ts, ReasonNoEligibleMember)
	}
}

// dispatchOneReplica sends one copy of ts to addr and arms its timeout.
func (c *Controller) dispatchOneReplica(ts *taskState, addr vnet.Addr, remaining float64) {
	ts.attempt++
	slot := &replicaSlot{assignee: addr, attempt: ts.attempt, remaining: remaining}
	ts.replicas = append(ts.replicas, slot)
	idx := len(ts.replicas) - 1
	c.stats.ReplicaDispatches.Inc()
	c.cfg.Trace.Emit(c.node.Kernel().Now(), trace.CatCloud, int32(c.node.Addr()),
		"task %d replica %d -> %d (attempt %d, %.0f ops)", ts.task.ID, idx, addr, slot.attempt, remaining)
	m := c.members[addr]
	m.queuedOps += remaining
	c.stats.OpsDispatched += remaining
	msg := c.node.NewMessage(addr, kindTask, 64+ts.task.InputBytes, 1, taskMsg{
		Task:         ts.task,
		RemainingOps: remaining,
		Attempt:      slot.attempt,
		Replica:      idx,
		Epoch:        c.epoch,
	})
	c.node.SendTo(addr, msg)

	timeout := ts.policy.AttemptTimeout
	if timeout <= 0 {
		expect := m.queuedOps/m.res.CPU + 2.0
		timeout = sim.Time(expect*3*float64(time.Second)) + 2*time.Second
	}
	attempt := slot.attempt
	slot.timeout = c.node.Kernel().After(timeout, func() {
		cur, live := c.tasks[ts.task.ID]
		if !live || cur != ts || slot.attempt != attempt || slot.resolved() || c.stopped {
			return
		}
		c.failReplica(ts, slot, 0.5) // silent loss: half-weight negative evidence
		c.maybeDecide(ts)
	})
}

// failReplica marks a slot dead, releases its queue share, counts the
// waste, and feeds negative evidence of the given weight to the trust
// engine.
func (c *Controller) failReplica(ts *taskState, slot *replicaSlot, badWeight float64) {
	slot.failed = true
	c.node.Kernel().Cancel(slot.timeout)
	c.stats.WastedOps += slot.remaining
	if m, ok := c.members[slot.assignee]; ok {
		m.queuedOps -= slot.remaining
		if m.queuedOps < 0 {
			m.queuedOps = 0
		}
	}
	if c.cfg.Workers != nil {
		c.cfg.Workers.Bad(slot.assignee, badWeight)
	}
}

// scheduleRetryRound burns one retry and re-enters dispatch after a
// deterministic exponential backoff with seeded jitter. failReason is
// used when the retry budget is already spent.
func (c *Controller) scheduleRetryRound(ts *taskState, failReason FailReason) {
	if ts.roundPending {
		return
	}
	if ts.task.Deadline > 0 && c.node.Kernel().Now() > ts.task.Deadline {
		c.finishDepend(ts, false, ReasonDeadline, 0)
		return
	}
	if ts.retries >= ts.policy.MaxRetries {
		c.finishDepend(ts, false, failReason, 0)
		return
	}
	ts.retries++
	ts.round++
	round := ts.round
	c.stats.Retries.Inc()
	delay := ts.policy.RetryBackoff * sim.Time(1<<uint(ts.round-1))
	if j := ts.policy.BackoffJitter; j > 0 {
		f := 1 + j*(2*c.rng.Float64()-1)
		delay = sim.Time(float64(delay) * f)
	}
	ts.roundPending = true
	c.node.Kernel().After(delay, func() {
		cur, live := c.tasks[ts.task.ID]
		if !live || cur != ts || ts.round != round || c.stopped {
			return
		}
		ts.roundPending = false
		// Top the live pool back up to K (at least one fresh copy, so a
		// tied vote gains a tie-breaker).
		liveCount := 0
		for _, r := range ts.replicas {
			if !r.resolved() {
				liveCount++
			}
		}
		need := ts.policy.Replicas - liveCount
		if need < 1 {
			need = 1
		}
		c.dispatchReplicas(ts, need)
	})
}

// onReplicaResult handles a vote from one replica.
func (c *Controller) onReplicaResult(ts *taskState, rm resultMsg, origin vnet.Addr) {
	if rm.Replica < 0 || rm.Replica >= len(ts.replicas) {
		return
	}
	slot := ts.replicas[rm.Replica]
	if slot.resolved() || rm.Attempt != slot.attempt || origin != slot.assignee {
		return // stale echo from a superseded attempt
	}
	c.node.Kernel().Cancel(slot.timeout)
	if m, ok := c.members[slot.assignee]; ok {
		m.queuedOps -= slot.remaining
		if m.queuedOps < 0 {
			m.queuedOps = 0
		}
	}
	slot.voted = true
	slot.value = rm.Value
	c.maybeDecide(ts)
}

// onReplicaHandover moves one replica's remaining work to a fresh
// member when its worker announces departure.
func (c *Controller) onReplicaHandover(ts *taskState, hm handoverMsg, origin vnet.Addr) {
	if hm.Replica < 0 || hm.Replica >= len(ts.replicas) {
		return
	}
	slot := ts.replicas[hm.Replica]
	if slot.resolved() || hm.Attempt != slot.attempt || origin != slot.assignee {
		return
	}
	c.node.Kernel().Cancel(slot.timeout)
	if m, ok := c.members[slot.assignee]; ok {
		m.queuedOps -= slot.remaining
		if m.queuedOps < 0 {
			m.queuedOps = 0
		}
	}
	ts.handovers++
	c.stats.Handovers.Inc()
	// Re-place the remainder on a member not already holding a copy.
	exclude := ts.liveAssignees()
	exclude[origin] = true
	addr, found := c.pickReplicaMember(ts, exclude, hm.RemainingOps)
	if !found {
		slot.failed = true
		c.stats.WastedOps += hm.RemainingOps
		c.maybeDecide(ts)
		return
	}
	slot.failed = true // old slot closed; remainder continues in a new one
	c.dispatchOneReplica(ts, addr, hm.RemainingOps)
}

// expireReplicas fails every unresolved replica held by a vanished
// member and re-evaluates the vote. Called from the membership sweep.
func (c *Controller) expireReplicas(ts *taskState, gone vnet.Addr) {
	touched := false
	for _, slot := range ts.replicas {
		if slot.assignee == gone && !slot.resolved() {
			c.failReplica(ts, slot, 0.5)
			touched = true
		}
	}
	if touched {
		c.maybeDecide(ts)
	}
}

// maybeDecide evaluates the vote. Early acceptance fires as soon as
// ⌊K/2⌋+1 identical values arrive; otherwise the tally waits until every
// replica has resolved and accepts the plurality winner only with a
// strict majority of the cast weight. No quorum (or total loss) feeds a
// retry round until the budget runs out.
func (c *Controller) maybeDecide(ts *taskState) {
	// Tally cast votes by value, in replica order for determinism.
	type bucket struct {
		value  uint64
		count  int
		weight float64
	}
	var buckets []bucket
	unresolved := 0
	cast := 0
	castWeight := 0.0
	// One opinion per worker: when the small-pool fallback re-dispatches
	// a task to a worker that already voted, its (deterministic) value
	// must not count twice — a lone Byzantine worker could otherwise
	// vote its wrong value into a quorum across retry rounds.
	seen := make(map[vnet.Addr]bool, len(ts.replicas))
	for _, slot := range ts.replicas {
		if !slot.resolved() {
			unresolved++
			continue
		}
		if !slot.voted {
			continue
		}
		if seen[slot.assignee] {
			continue
		}
		seen[slot.assignee] = true
		cast++
		w := 1.0
		if ts.policy.TrustWeighted && c.cfg.Workers != nil {
			w = c.cfg.Workers.Score(slot.assignee)
		}
		castWeight += w
		found := false
		for i := range buckets {
			if buckets[i].value == slot.value {
				buckets[i].count++
				buckets[i].weight += w
				found = true
				break
			}
		}
		if !found {
			buckets = append(buckets, bucket{value: slot.value, count: 1, weight: w})
		}
	}
	earlyQuorum := ts.policy.Replicas/2 + 1
	for _, b := range buckets {
		if b.count >= earlyQuorum {
			c.decideVote(ts, b.value)
			return
		}
	}
	if unresolved > 0 {
		return // more votes may come
	}
	if cast > 0 {
		best := buckets[0]
		for _, b := range buckets[1:] {
			if b.weight > best.weight {
				best = b
			}
		}
		// Accept a sub-quorum plurality only with a weighted strict
		// majority AND at least two identical values. A lone surviving
		// voter may be the Byzantine one, so singleton votes never
		// decide; two independent workers producing the same value
		// cannot both be lying under the non-colluding attacker model,
		// which preserves correctness under ≤⌊(K−1)/2⌋ Byzantine
		// replicas even when crashes leave fewer than ⌊K/2⌋+1 voters.
		if best.weight > castWeight/2 && best.count >= 2 {
			c.decideVote(ts, best.value)
			return
		}
		c.stats.NoQuorum.Inc()
		c.scheduleRetryRound(ts, ReasonNoQuorum)
		return
	}
	// Every replica died without voting.
	c.scheduleRetryRound(ts, ReasonRetriesExhausted)
}

// decideVote settles the task on the winning value: winners earn
// positive trust evidence, losers negative (they voted against the
// majority — the Fig. 3 trust update), and the result reports the full
// voter roster.
func (c *Controller) decideVote(ts *taskState, winner uint64) {
	if ts.task.Deadline > 0 && c.node.Kernel().Now() > ts.task.Deadline {
		c.finishDepend(ts, false, ReasonDeadline, 0)
		return
	}
	seen := make(map[vnet.Addr]bool, len(ts.replicas))
	for _, slot := range ts.replicas {
		if !slot.voted || seen[slot.assignee] {
			continue // one roster entry and one evidence update per worker
		}
		seen[slot.assignee] = true
		if slot.value == winner {
			ts.voters = append(ts.voters, slot.assignee)
			if c.cfg.Workers != nil {
				c.cfg.Workers.Good(slot.assignee, 1.0)
			}
		} else {
			ts.voters = append(ts.voters, slot.assignee)
			c.stats.WrongVotes.Inc()
			if c.cfg.Workers != nil {
				c.cfg.Workers.Bad(slot.assignee, 1.0)
			}
		}
	}
	c.finishDepend(ts, true, "", winner)
}

// finishDepend releases everything the replicated task still holds and
// completes it through the common finish path.
func (c *Controller) finishDepend(ts *taskState, ok bool, reason FailReason, value uint64) {
	for _, slot := range ts.replicas {
		if !slot.resolved() {
			c.node.Kernel().Cancel(slot.timeout)
			if m, live := c.members[slot.assignee]; live {
				m.queuedOps -= slot.remaining
				if m.queuedOps < 0 {
					m.queuedOps = 0
				}
			}
		}
	}
	ts.value = value
	c.finish(ts.task.ID, ts, ok, reason)
}

// failFastDeadline reports whether the task's deadline is already
// unmeetable at submit time: either it has passed, or every eligible
// member's earliest possible completion lands after it. With no member
// at all the check abstains — the cloud may still be forming and the
// retry loop gives it time.
func (c *Controller) failFastDeadline(task Task) bool {
	if task.Deadline <= 0 {
		return false
	}
	now := c.node.Kernel().Now()
	if task.Deadline <= now {
		return true
	}
	budget := (task.Deadline - now).Seconds()
	seen := false
	bestFinish := math.Inf(1)
	for _, m := range c.members {
		if now-m.lastSeen > c.cfg.MemberTTL || m.res.CPU <= 0 || !m.res.HasSensor(task.NeedsSensor) {
			continue
		}
		seen = true
		if f := (m.queuedOps + task.Ops) / m.res.CPU; f < bestFinish {
			bestFinish = f
		}
	}
	return seen && bestFinish > budget
}

// InvariantViolations returns the internal-consistency violations the
// controller has detected (double finishes) plus a fresh orphan audit.
// An empty slice is the healthy state; the chaos soak asserts it stays
// that way between events.
func (c *Controller) InvariantViolations() []string {
	out := make([]string, len(c.violations))
	copy(out, c.violations)
	return append(out, c.auditOrphans()...)
}

// auditOrphans scans for tasks that can never make progress again — no
// pending timeout, no pending retry round, no unresolved replica with a
// live timer — the observable form of the "no orphaned running task
// after member expiry" invariant. A task parked on a vanished member is
// fine as long as a timer will eventually reclaim it; a task nothing
// will ever touch again is a controller bug. Sound only between kernel
// events (mid-event a task may transiently hold no timer), which is
// when the chaos soak's checker runs.
func (c *Controller) auditOrphans() []string {
	var out []string
	ids := make([]TaskID, 0, len(c.tasks))
	for id := range c.tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ts := c.tasks[id]
		if ts.roundPending {
			continue // a retry round will re-dispatch it
		}
		if ts.policy == nil {
			if !ts.timeout.Pending() {
				out = append(out, fmt.Sprintf("task %d stuck: no pending timeout or retry", id))
			}
			continue
		}
		stuck := true
		for _, slot := range ts.replicas {
			if !slot.resolved() && slot.timeout.Pending() {
				stuck = false
				break
			}
		}
		if stuck {
			out = append(out, fmt.Sprintf("task %d stuck: all %d replicas resolved or timer-less", id, len(ts.replicas)))
		}
	}
	return out
}
