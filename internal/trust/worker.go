package trust

import (
	"fmt"
	"math"
	"sort"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// WorkerSet is the execution-trust engine of the Fig. 3 loop: it scores
// cloud members by the outcomes of the tasks they executed, so the
// scheduler can exclude untrustworthy workers from placement and weight
// their votes in redundant-execution majority decisions.
//
// Unlike the message-content validators above (which score anonymous,
// ephemeral reporters), workers are stable cloud members with persistent
// addresses, so direct evidence accumulation works: each worker carries
// Beta-reputation pseudo-counts (good, bad) and scores
// (good+1)/(good+bad+2) — the posterior mean with a uniform prior, 0.5
// when nothing is known.
//
// Evidence decays exponentially with virtual time (half-life Halflife),
// which keeps the evaluation "real-time" in the paper's §V.D sense:
// stale verdicts fade, a worker punished long ago drifts back toward the
// prior and gets re-tested instead of being exiled forever — essential
// under churn, where unreliability is often transient (a departing
// vehicle, a radio shadow) rather than malice.
type WorkerSet struct {
	now      func() sim.Time
	halflife sim.Time
	recs     map[vnet.Addr]*workerRec
}

type workerRec struct {
	good, bad float64
	last      sim.Time
}

// NewWorkerSet creates a worker-trust engine. now supplies virtual time
// (wire it to the kernel's clock); halflife is the evidence half-life
// (zero disables decay).
func NewWorkerSet(now func() sim.Time, halflife sim.Time) (*WorkerSet, error) {
	if now == nil {
		return nil, fmt.Errorf("trust: now clock must not be nil")
	}
	if halflife < 0 {
		return nil, fmt.Errorf("trust: halflife must be >= 0, got %v", halflife)
	}
	return &WorkerSet{
		now:      now,
		halflife: halflife,
		recs:     make(map[vnet.Addr]*workerRec),
	}, nil
}

// rec returns the (decayed) record for a worker, creating it on demand.
func (ws *WorkerSet) rec(a vnet.Addr) *workerRec {
	r, ok := ws.recs[a]
	if !ok {
		//vcloudlint:allow hotalloc one record per worker, created the first time it is scored; every later read finds it
		r = &workerRec{last: ws.now()}
		ws.recs[a] = r
		return r
	}
	if ws.halflife > 0 {
		now := ws.now()
		if dt := now - r.last; dt > 0 {
			f := math.Exp2(-float64(dt) / float64(ws.halflife))
			r.good *= f
			r.bad *= f
		}
		r.last = ws.now()
	}
	return r
}

// Good adds positive evidence with the given weight (a worker's result
// matched the majority verdict).
func (ws *WorkerSet) Good(a vnet.Addr, weight float64) {
	if weight <= 0 {
		return
	}
	ws.rec(a).good += weight
}

// Bad adds negative evidence with the given weight (a wrong vote, a
// silent timeout, a mid-task disappearance).
func (ws *WorkerSet) Bad(a vnet.Addr, weight float64) {
	if weight <= 0 {
		return
	}
	ws.rec(a).bad += weight
}

// Score returns the worker's trust in [0,1]; unknown workers score 0.5.
func (ws *WorkerSet) Score(a vnet.Addr) float64 {
	if _, ok := ws.recs[a]; !ok {
		return 0.5
	}
	r := ws.rec(a)
	return (r.good + 1) / (r.good + r.bad + 2)
}

// Weight maps a worker's Beta-reputation score into a multiplicative
// placement weight in [0.5, 1.5]: an unknown worker (score 0.5) weighs
// 1.0, a fully trusted one 1.5, a fully distrusted one 0.5. Schedulers
// divide a worker's predicted finish time by this weight, so at equal
// load the more reliable worker wins the placement without ever
// hard-excluding the rest of the pool.
func (ws *WorkerSet) Weight(a vnet.Addr) float64 {
	return 0.5 + ws.Score(a)
}

// Known returns how many workers have accumulated evidence.
func (ws *WorkerSet) Known() int { return len(ws.recs) }

// Snapshot returns current scores keyed by worker, for reports. Decay is
// applied as of now.
func (ws *WorkerSet) Snapshot() map[vnet.Addr]float64 {
	out := make(map[vnet.Addr]float64, len(ws.recs))
	for a := range ws.recs {
		out[a] = ws.Score(a)
	}
	return out
}

// Below returns the workers currently scoring under the threshold, in
// ascending address order — the placement exclusion set.
func (ws *WorkerSet) Below(threshold float64) []vnet.Addr {
	var out []vnet.Addr
	for a := range ws.recs {
		if ws.Score(a) < threshold {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
