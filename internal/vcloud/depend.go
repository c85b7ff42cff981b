// Dependable task execution: the data-plane counterpart of the PR-1
// control-plane failover, and the one lifecycle every task runs
// (dispatch, lose or hand over, retry, decide; a single copy is K = 1). The paper's §III/Fig. 3 dependability argument
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
	"slices"
	"time"

	"vcloud/internal/mobility"
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vnet"
)

// A re-dispatch round r waits retryBackoff · 2^(r-1), spread uniformly
// over [1-backoffJitter, 1+backoffJitter] times that by the controller's
// seeded stream, so runs reproduce bit-for-bit. A DAG stage's retries
// back off from the same base (see onStageFailed).
const (
	retryBackoff  = 500 * time.Millisecond
	backoffJitter = 0.5
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
	return p
}

// effectivePolicy resolves the policy for a task: the task's own
// override, else the controller default, else the default policy.
func (c *Controller) effectivePolicy(t Task) *DependabilityPolicy {
	var p DependabilityPolicy
	if t.Depend != nil {
		p = *t.Depend
	} else if c.cfg.Depend != nil {
		p = *c.cfg.Depend
	}
	p = p.withDefaults()
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
	short  bool    // its dwell does not cover the run
	finish float64 // seconds until it would finish the work
	tier   int     // dwell tier; 0 outside DAG stage placement
}

// betterThan is the placement order: members whose dwell covers the run
// before the dwell-short ones (best effort, when nobody's suffices),
// then earliest finish, then the higher dwell tier, then the lower
// address. It is total, so the picks do not depend on the order members
// are visited in.
func (a placeCand) betterThan(b placeCand) bool {
	if a.short != b.short {
		return !a.short
	}
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	if a.tier != b.tier {
		return a.tier > b.tier
	}
	return a.addr < b.addr
}

// dwellMargin multiplies a candidate's estimated runtime when testing
// whether its dwell suffices.
const dwellMargin = 1.2

// placeReplicas picks up to need members for new copies of ts, each
// carrying remaining ops, best first, from one pass over the roster. A
// member qualifies when it is fresh, sensor-capable, above the trust
// threshold and not in skip (ascending: the members this placement must
// keep disjoint from). With fallback, the slots that pass leaves empty
// go to the skipped members holding no live copy of ts (a worker that
// timed out may be retried — radio loss is transient). The result is the
// controller's scratch, valid until the next call.
//
// The picks equal need successive single best picks, each excluding the
// members picked before it: a pick changes no other member's finish or
// eligibility, and a trust read (trust.WorkerSet.Score) writes nothing.
//
//vcloudlint:hotpath once per dispatch round of every task and DAG stage and per handover; keeps a running top-need instead of building candidate pools
func (c *Controller) placeReplicas(ts *taskState, need int, remaining float64, skip []vnet.Addr, fallback bool) []placeCand {
	now := c.node.Kernel().Now()
	c.picks = c.picks[:0]
	j := 0
	for _, m := range c.members {
		for j < len(skip) && skip[j] < m.addr {
			j++
		}
		if j < len(skip) && skip[j] == m.addr {
			continue
		}
		c.offer(ts, m, remaining, now, 0, need)
	}
	if n := len(c.picks); fallback && n < need {
		// The first pass took every qualifying unskipped member, so only
		// skipped ones can fill the rest.
		for _, a := range skip {
			if m := c.members.get(a); m != nil && !ts.holdsLive(a) {
				c.offer(ts, m, remaining, now, n, need-n)
			}
		}
	}
	return c.picks
}

// offer weighs m for a copy of ts and, when it qualifies, enters it into
// the running picks c.picks[from:], kept best first and at most n long.
func (c *Controller) offer(ts *taskState, m *memberInfo, remaining float64, now sim.Time, from, n int) {
	if now-m.lastSeen > memberTTL || m.cpu <= 0 {
		return
	}
	if !c.trustEligible(ts.policy, m.addr) {
		return
	}
	runtime := (m.queuedOps + remaining) / m.cpu
	cd := placeCand{addr: m.addr, finish: runtime + m.delay.Seconds()}
	// Edge servers are fixed infrastructure: dwell always suffices.
	dwell := math.Inf(1)
	if c.dwell != nil && !m.edge {
		//vcloudlint:allow hotalloc the deployment's estimator hook (arch.go wires mobility.EstimateDwell); TestPickReplicaAllocs holds the path at zero
		dwell = c.dwell(m.addr)
		cd.short = !(dwell >= runtime*dwellMargin)
	}
	// DAG stage placement layers two reliability weights on top of the
	// finish-time ranking (stages are placed "weighted by predicted
	// residual dwell time and trust score"): the finish estimate is
	// divided by the worker's Beta-reputation weight, and finish ties
	// break toward the higher dwell tier before the address. Non-stage
	// tasks keep the plain ordering.
	if ts.task.Stage != nil {
		cd.tier = mobility.DwellTier(dwell)
		if c.cfg.Workers != nil {
			cd.finish /= c.cfg.Workers.Weight(m.addr)
		}
	}
	last := len(c.picks)
	if last-from == n {
		if !cd.betterThan(c.picks[last-1]) {
			return
		}
		last--
	}
	c.picks = append(c.picks[:last], cd)
	i := last
	for ; i > from && cd.betterThan(c.picks[i-1]); i-- {
		c.picks[i] = c.picks[i-1]
	}
	c.picks[i] = cd
}

// holdsLive reports whether a holds an unresolved copy of ts.
func (ts *taskState) holdsLive(a vnet.Addr) bool {
	for _, r := range ts.replicas {
		if r.assignee == a && !r.resolved() {
			return true
		}
	}
	return false
}

// assignees appends to dst, ascending and once each, the members that
// hold a copy of ts: every one that ever did, or with live only those
// whose copy is unresolved.
func (ts *taskState) assignees(dst []vnet.Addr, live bool) []vnet.Addr {
	for _, r := range ts.replicas {
		if !live || !r.resolved() {
			dst = insertAddr(dst, r.assignee)
		}
	}
	return dst
}

// insertAddr adds a to the ascending list s unless it is there already.
func insertAddr(s []vnet.Addr, a vnet.Addr) []vnet.Addr {
	i, found := slices.BinarySearch(s, a)
	if found {
		return s
	}
	return slices.Insert(s, i, a)
}

// dispatchReplicas places up to need new copies of ts, each carrying
// ts.remainingOps, on disjoint members. Placement first passes over every
// member that ever held a copy and falls back to excluding only members
// holding a live copy (see placeReplicas). Dispatching fewer than need
// copies is fine: the vote decides over whatever reports, and
// maybeDecide tops the pool up on the retry path when no quorum forms.
func (c *Controller) dispatchReplicas(ts *taskState, need int) {
	c.skip = ts.assignees(c.skip[:0], false)
	picks := c.placeReplicas(ts, need, ts.remainingOps, c.skip, true)
	for _, cd := range picks {
		c.dispatchOneReplica(ts, cd.addr, ts.remainingOps)
	}
	if len(picks) == 0 {
		// Nobody eligible right now (cloud still forming, or the trust
		// gate emptied the pool): come back after a backoff round.
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
	c.emit(trace.Dispatch, ts.task.ID, int64(addr), int64(idx))
	m := c.members.get(addr)
	m.queuedOps += remaining
	c.stats.OpsDispatched += remaining
	msg := c.node.NewMessage(addr, kindTask, 64+ts.task.InputBytes, 1, taskMsg{
		Task:         ts.task,
		RemainingOps: remaining,
		Attempt:      slot.attempt,
		Replica:      idx,
		Epoch:        c.lead.epoch,
	})
	c.node.SendTo(addr, msg)

	timeout := ts.policy.AttemptTimeout
	if timeout <= 0 {
		expect := m.queuedOps/m.cpu + 2.0
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
	c.releaseSlot(slot)
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
		c.finish(ts, false, ReasonDeadline, 0)
		return
	}
	if ts.retries >= ts.policy.MaxRetries {
		c.finish(ts, false, failReason, 0)
		return
	}
	ts.retries++
	ts.round++
	round := ts.round
	c.stats.Retries.Inc()
	delay := retryBackoff * sim.Time(1<<uint(ts.round-1))
	delay = sim.Time(float64(delay) * (1 + backoffJitter*(2*c.rng.Float64()-1)))
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

// expireReplicas fails every unresolved replica held by a vanished
// member and re-evaluates the vote. Called from the membership sweep.
func (c *Controller) expireReplicas(ts *taskState, gone vnet.Addr) {
	touched := false
	for i, slot := range ts.replicas {
		if slot.assignee == gone && !slot.resolved() {
			c.emit(trace.ReplicaLost, ts.task.ID, int64(gone), int64(i))
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
		c.finish(ts, false, ReasonDeadline, 0)
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
	c.finish(ts, true, "", winner)
}

// releaseReplicas cancels every unresolved replica of ts and takes its
// work off its member's queue: the task is finished or superseded.
func (c *Controller) releaseReplicas(ts *taskState) {
	for _, slot := range ts.replicas {
		if !slot.resolved() {
			c.node.Kernel().Cancel(slot.timeout)
			c.releaseSlot(slot)
		}
	}
}

// releaseSlot takes one replica's work off its member's queue.
func (c *Controller) releaseSlot(slot *replicaSlot) {
	if m := c.members.get(slot.assignee); m != nil {
		m.queuedOps -= slot.remaining
		if m.queuedOps < 0 {
			m.queuedOps = 0
		}
	}
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
		if now-m.lastSeen > memberTTL || m.cpu <= 0 {
			continue
		}
		seen = true
		if f := (m.queuedOps + task.Ops) / m.cpu; f < bestFinish {
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
// pending retry round, no unresolved replica with a live timer — the
// observable form of the "no orphaned running task after member expiry"
// invariant. A task parked on a vanished member is fine as long as a
// timer will eventually reclaim it; a task nothing will ever touch again
// is a controller bug. Sound only between kernel events (mid-event a
// task may transiently hold no timer), which is when the chaos soak's
// checker runs.
func (c *Controller) auditOrphans() []string {
	var out []string
	for _, id := range sortedKeys(c.tasks) {
		ts := c.tasks[id]
		if ts.roundPending {
			continue // a retry round will re-dispatch it
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
