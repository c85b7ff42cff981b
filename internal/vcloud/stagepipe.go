// Stage data handoff: the member-to-member pipeline that moves a DAG
// stage's output to the workers of its successors (PR 7 tentpole). The
// controller never proxies stage data on the happy path — its dispatch
// carries only the *addresses* of the predecessor's deciding voters
// (StageBinding.Inputs), and the worker pulls each input directly from
// a holder before compute starts. Replicas rotate their starting holder
// by replica index, so redundant copies of one stage diversify their
// input provenance: a Byzantine holder serving tampered bytes skews
// only the replicas that pulled from it, and downstream voting catches
// the divergence.
//
// Fallback ladder, per input: every listed holder in turn (bounded
// per-pull timeout) → controller relay (the controller still knows the
// decided value of every Done stage of a live job) → give up silently,
// letting the controller's attempt timeout reassign the stage task.
// All handoff messages are epoch-stamped: a pull or relay minted under
// a superseded leadership generation is rejected exactly like a stale
// dispatch, so a deposed controller's workers cannot resurrect traffic
// across a healed partition.
package vcloud

import (
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// Stage-handoff protocol message kinds.
const (
	kindStagePull  = "vc.spull"
	kindStageData  = "vc.sdata"
	kindStageRelay = "vc.srelay"
)

const (
	// stageCacheCap bounds the per-member stage-output cache (FIFO).
	stageCacheCap = 256
	// stagePullTimeout bounds one holder pull attempt.
	stagePullTimeout = time.Second
	// stageRelayTimeout bounds one controller-relay attempt.
	stageRelayTimeout = 2 * time.Second
	// stageRelayRetries bounds relay attempts per input before the
	// worker gives up on the task.
	stageRelayRetries = 3
)

// pullMsg asks a member for its cached copy of one stage output. For
// echoes the pulling task so the reply routes to the right fetch.
type pullMsg struct {
	For   TaskID
	Job   JobID
	Stage int
	Epoch Epoch
}

// stageDataMsg answers a pull or relay: the decided stage value, sized
// by the stage's OutputBytes so the radio pays the real transfer cost.
// OK false is an explicit miss — faster than letting the puller wait
// out its timeout.
type stageDataMsg struct {
	For   TaskID
	Stage int
	OK    bool
	Value uint64
	Epoch Epoch
}

// relayMsg asks the controller to serve a stage output whose holders
// all failed — the fallback that trades a controller round-trip for
// progress when churn swept the original voters away.
type relayMsg struct {
	For   TaskID
	Job   JobID
	Stage int
	Epoch Epoch
}

// stageKey identifies one cached stage output.
type stageKey struct {
	job   JobID
	stage int
}

// stageEntry is one cached stage output.
type stageEntry struct {
	value uint64
	bytes int
}

// stageCache is a bounded FIFO cache of stage outputs this member
// computed, kept to serve downstream pulls.
type stageCache struct {
	entries map[stageKey]stageEntry
	order   []stageKey
}

func newStageCache() *stageCache {
	return &stageCache{entries: make(map[stageKey]stageEntry)}
}

func (sc *stageCache) put(k stageKey, e stageEntry) {
	if _, dup := sc.entries[k]; !dup {
		sc.order = append(sc.order, k)
		for len(sc.order) > stageCacheCap {
			delete(sc.entries, sc.order[0])
			sc.order = sc.order[1:]
		}
	}
	sc.entries[k] = e
}

func (sc *stageCache) get(k stageKey) (stageEntry, bool) {
	e, ok := sc.entries[k]
	return e, ok
}

// stageFetch is the per-task input-gathering state machine: one input
// at a time (in Deps order), one source attempt in flight at most.
type stageFetch struct {
	rt      *runningTask
	idx     int // input being fetched
	tries   int // holder attempts for the current input
	relays  int // relay attempts for the current input
	timeout sim.EventID
}

// startStageFetch begins gathering the stage task's inputs; compute is
// scheduled only once every input value has arrived.
func (m *Member) startStageFetch(rt *runningTask) {
	rt.fetching = true
	rt.stageInputs = rt.stageInputs[:0]
	f := &stageFetch{rt: rt}
	m.fetches[rt.task.ID] = f
	m.pullNext(f)
}

// pullNext advances the fetch: local cache reuse, then the rotated
// holder list, then the controller relay, then give up.
func (m *Member) pullNext(f *stageFetch) {
	b := f.rt.task.Stage
	for f.idx < len(b.Inputs) {
		in := b.Inputs[f.idx]
		if e, hit := m.cache.get(stageKey{job: b.Job, stage: in.Stage}); hit {
			// This member computed (or already pulled) the predecessor:
			// zero-cost local handoff.
			m.stats.StageHandoffs.Inc()
			f.rt.stageInputs = append(f.rt.stageInputs, e.value)
			f.idx++
			f.tries, f.relays = 0, 0
			continue
		}
		if f.tries < len(in.Sources) {
			// Rotate the starting holder by replica index: redundant
			// copies of this stage spread their pulls across holders.
			start := f.rt.replica
			if start < 0 {
				start = 0
			}
			src := in.Sources[(start+f.tries)%len(in.Sources)]
			m.node.SendTo(src, m.node.NewMessage(src, kindStagePull, 64, 1, pullMsg{
				For:   f.rt.task.ID,
				Job:   b.Job,
				Stage: in.Stage,
				Epoch: f.rt.epoch,
			}))
			f.timeout = m.node.Kernel().After(stagePullTimeout, func() { m.onPullTimeout(f) })
			return
		}
		if f.relays < stageRelayRetries {
			f.relays++
			m.node.SendTo(f.rt.controller, m.node.NewMessage(f.rt.controller, kindStageRelay, 64, 1, relayMsg{
				For:   f.rt.task.ID,
				Job:   b.Job,
				Stage: in.Stage,
				Epoch: f.rt.epoch,
			}))
			f.timeout = m.node.Kernel().After(stageRelayTimeout, func() { m.onPullTimeout(f) })
			return
		}
		// Every holder and the relay failed: drop the task silently.
		// The controller's attempt timeout recovers and reassigns.
		m.abortStageFetch(f)
		return
	}
	m.finishStageFetch(f)
}

// onPullTimeout fires when a pull or relay went unanswered.
func (m *Member) onPullTimeout(f *stageFetch) {
	if m.stopped || m.fetches[f.rt.task.ID] != f {
		return
	}
	f.tries++
	m.pullNext(f)
}

// abortStageFetch abandons a stage task whose inputs are unreachable.
func (m *Member) abortStageFetch(f *stageFetch) {
	delete(m.fetches, f.rt.task.ID)
	if m.current[f.rt.task.ID] == f.rt {
		delete(m.current, f.rt.task.ID)
	}
}

// finishStageFetch schedules compute now that every input is local:
// the task queues behind the member's other work exactly like a plain
// dispatch would have.
func (m *Member) finishStageFetch(f *stageFetch) {
	rt := f.rt
	delete(m.fetches, rt.task.ID)
	rt.fetching = false
	queued := m.queuedOps(rt)
	now := m.node.Kernel().Now()
	wait := m.cfg.StartDelay + sim.Time(queued/m.cfg.CPU*float64(time.Second))
	rt.startedAt = now + wait
	runFor := wait + sim.Time(rt.ops/m.cfg.CPU*float64(time.Second))
	rt.doneEv = m.node.Kernel().After(runFor, func() { m.complete(rt) })
}

// onStageData routes a pull/relay answer into the waiting fetch.
func (m *Member) onStageData(msg vnet.Message, _ vnet.Addr) {
	dm, ok := msg.Payload.(stageDataMsg)
	if !ok {
		return
	}
	f, live := m.fetches[dm.For]
	if !live {
		return // task finished fetching or was dropped
	}
	b := f.rt.task.Stage
	if f.idx >= len(b.Inputs) || b.Inputs[f.idx].Stage != dm.Stage {
		return // answer for an input already resolved
	}
	m.node.Kernel().Cancel(f.timeout)
	if dm.OK {
		// Cache the pulled input too: this member can now serve it to
		// siblings, and a retried attempt re-uses it for free.
		m.cache.put(stageKey{job: b.Job, stage: dm.Stage}, stageEntry{value: dm.Value, bytes: b.Inputs[f.idx].Bytes})
		f.rt.stageInputs = append(f.rt.stageInputs, dm.Value)
		f.idx++
		f.tries, f.relays = 0, 0
	} else {
		f.tries++ // explicit miss: advance to the next holder now
	}
	m.pullNext(f)
}

// onStagePull serves this member's cached stage outputs to peers.
func (m *Member) onStagePull(msg vnet.Message, _ vnet.Addr) {
	pm, ok := msg.Payload.(pullMsg)
	if !ok {
		return
	}
	// Fencing: a pull minted under a superseded generation is as stale
	// as a dispatch from it.
	if !m.witness(pm.Epoch) {
		return
	}
	e, hit := m.cache.get(stageKey{job: pm.Job, stage: pm.Stage})
	size := 64
	if hit {
		size += e.bytes
		m.stats.StageHandoffs.Inc()
	}
	m.node.SendTo(msg.Origin, m.node.NewMessage(msg.Origin, kindStageData, size, 1, stageDataMsg{
		For:   pm.For,
		Stage: pm.Stage,
		OK:    hit,
		Value: e.value,
		Epoch: m.lead.watermark(),
	}))
}

// onStageRelay is the controller-side fallback: it serves the decided
// value of a Done stage when every member holder failed. A miss (job
// finished, stage undecided) stays silent — the worker's relay timeout
// drives its retry/give-up ladder.
func (c *Controller) onStageRelay(msg vnet.Message, _ vnet.Addr) {
	rm, ok := msg.Payload.(relayMsg)
	if !ok {
		return
	}
	if stale(c.lead.epoch, rm.Epoch) {
		c.stats.StaleRejected.Inc()
		return
	}
	j, live := c.jobs[rm.Job]
	if !live || rm.Stage < 0 || rm.Stage >= len(j.stages) {
		return
	}
	st := &j.stages[rm.Stage]
	if st.status != StageDone {
		return
	}
	c.stats.StageRelays.Inc()
	c.node.SendTo(msg.Origin, c.node.NewMessage(msg.Origin, kindStageData, 64+j.spec.Stages[rm.Stage].OutputBytes, 1, stageDataMsg{
		For:   rm.For,
		Stage: rm.Stage,
		OK:    true,
		Value: st.value,
		Epoch: c.lead.epoch,
	}))
}
