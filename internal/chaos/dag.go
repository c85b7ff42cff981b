// DAG soak: the dependent-stage job workload and its invariants
// (ISSUE 7). When SoakConfig.DAG is on, a stream of randomly-shaped DAG
// jobs (3–6 stages, random dependencies among earlier stages, an
// optional leaf branch, a small critical-path replica budget) flows
// alongside the task workload, the storm gains a kill-member branch (a
// member's process dies and its running stage work dies with it, unlike
// the radio-only crash branch), and the sweeps audit the DAG engine's
// safety contract:
//
//   - no stage outcome is applied twice: the engine's (task, epoch)
//     ledger plus the per-stage appliedTask tripwire surface duplicates
//     through Controller.InvariantViolations, which every sweep drains;
//
//   - a completed job implies ancestor completeness: every stage the
//     result reports Done has all of its dependencies Done, and every
//     stage that is not Done is Abandoned (an optional branch given up),
//     never Waiting, Running or Failed — a job may not claim success
//     over a hole in its dependency graph;
//
//   - the replica budget is never exceeded: the allocation tripwire in
//     buildJob fires through InvariantViolations, and the harness
//     re-checks ExtraReplicas against the submitted spec on every
//     result;
//
//   - job callbacks are exactly-once, and Partial is reported iff some
//     stage was abandoned.
//
// Jobs resumed by a failover successor lose their submitter callbacks
// (like task callbacks), so completed+failed can undercount submissions;
// the accounting invariant tolerates that, and JobsResumed reports how
// often it happened.
package chaos

import (
	"math/rand"
	"sort"

	"vcloud/internal/vcloud"
)

// soakJob tracks one submitted DAG job by sequence number.
type soakJob struct {
	spec  vcloud.JobSpec
	fired int
}

// dagState is the soak's DAG-workload bookkeeping.
type dagState struct {
	// rng is the dedicated "chaos.dag" stream shaping the random jobs,
	// so the DAG workload replays bit-for-bit per seed.
	rng  *rand.Rand
	jobs []*soakJob
}

// randomSpec draws one random-but-seeded job shape: 3–5 required stages
// whose dependencies point at random earlier stages, plus — half the
// time — one optional leaf branch, so graceful degradation is exercised
// alongside plain completion. The replica budget is small enough that
// allocation choices matter.
func (dg *dagState) randomSpec() vcloud.JobSpec {
	n := 3 + dg.rng.Intn(3)
	spec := vcloud.JobSpec{
		ReplicaBudget: 2,
		StageRetries:  2,
		TaskRetries:   1,
	}
	for i := 0; i < n; i++ {
		st := vcloud.StageSpec{
			Ops:         600 + dg.rng.Float64()*900,
			InputBytes:  800,
			OutputBytes: 400,
		}
		if i > 0 {
			// 1–2 distinct dependencies among earlier stages, sorted so the
			// spec is canonical.
			k := min(1+dg.rng.Intn(2), i)
			perm := dg.rng.Perm(i)[:k]
			sort.Ints(perm)
			st.Deps = perm
		}
		spec.Stages = append(spec.Stages, st)
	}
	if dg.rng.Float64() < 0.5 {
		spec.Stages = append(spec.Stages, vcloud.StageSpec{
			Ops:         400 + dg.rng.Float64()*400,
			OutputBytes: 200,
			Deps:        []int{dg.rng.Intn(n)},
			Optional:    true,
		})
	}
	return spec
}

// dagTick submits one random DAG job and registers its outcome audit.
func (sk *soak) dagTick() {
	dg := sk.dg
	seq := len(dg.jobs)
	sj := &soakJob{spec: dg.randomSpec()}
	dg.jobs = append(dg.jobs, sj)
	err := sk.w.Cloud.SubmitJobAnywhere(sj.spec, func(r vcloud.JobResult) {
		sk.onJobOutcome(seq, r)
	})
	if err != nil {
		sk.report.JobsRefused++
		sk.event("job %d refused at %s", seq, sk.s.Kernel.Now())
		return
	}
	sk.report.JobsSubmitted++
	sk.event("job %d submitted stages=%d budget=%d", seq, len(sj.spec.Stages), sj.spec.ReplicaBudget)
}

// onJobOutcome records a job callback and checks the job-level
// invariants: single firing, replica budget, and — on success —
// ancestor completeness and Partial consistency.
func (sk *soak) onJobOutcome(seq int, r vcloud.JobResult) {
	sj := sk.dg.jobs[seq]
	sj.fired++
	if sj.fired > 1 {
		sk.violate("job seq %d reported %d outcomes (a job callback fires at most once)", seq, sj.fired)
		return
	}
	if r.ExtraReplicas > sj.spec.ReplicaBudget {
		sk.violate("job seq %d allocated %d extra replicas over budget %d: the replica budget is never exceeded",
			seq, r.ExtraReplicas, sj.spec.ReplicaBudget)
	}
	if !r.OK {
		sk.report.JobsFailed++
		sk.event("job %d failed reason=%q restarts=%d", seq, r.Reason, r.Restarts)
		return
	}
	sk.report.JobsCompleted++
	if r.Partial {
		sk.report.JobsPartial++
	}
	abandoned := false
	for i, st := range r.Stages {
		switch st.Status {
		case vcloud.StageDone:
			for _, d := range sj.spec.Stages[i].Deps {
				if r.Stages[d].Status != vcloud.StageDone {
					sk.violate("job seq %d stage %d done but dependency %d is %s: a completed stage implies all its ancestors completed",
						seq, i, d, r.Stages[d].Status)
				}
			}
		case vcloud.StageAbandoned:
			abandoned = true
			if !sj.spec.Stages[i].Optional {
				// Validate's optional-closure rule means an abandoned stage is
				// optional itself or downstream of one.
				opt := false
				for _, d := range sj.spec.Stages[i].Deps {
					if r.Stages[d].Status == vcloud.StageAbandoned {
						opt = true
					}
				}
				if !opt {
					sk.violate("job seq %d abandoned required stage %d with no abandoned dependency", seq, i)
				}
			}
		default:
			sk.violate("job seq %d completed with stage %d in state %s: every stage of a completed job is done or abandoned",
				seq, i, st.Status)
		}
	}
	if r.Partial != abandoned {
		sk.violate("job seq %d partial=%v but abandoned-stage presence is %v: partial iff a branch was abandoned",
			seq, r.Partial, abandoned)
	}
	sk.event("job %d ok partial=%v extra=%d stages=%d latency=%s", seq, r.Partial, r.ExtraReplicas, len(r.Stages), r.Latency)
}
