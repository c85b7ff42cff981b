package vcloud

import (
	"fmt"
	"math"

	"vcloud/internal/sim"
)

// This file is the data layer of dependable DAG execution
// (Abdisarabshali et al., "Decomposition Theory Meets Reliability
// Analysis", PAPERS.md): job/stage specs, deterministic topological
// ordering, per-stage criticality, and reliability-aware allocation of a
// job's replica budget to the stages whose failure would restart the
// critical path. The controller-side engine lives in dagsched.go.

// JobID identifies a submitted DAG job. Like TaskID it is epoch-stamped
// (high bits carry the controller epoch counter) so IDs never collide
// across failovers.
type JobID uint64

// StageSpec describes one stage of a DAG job.
type StageSpec struct {
	// Ops is the stage's compute cost in abstract operations.
	Ops float64
	// InputBytes is external input delivered with the dispatch; the
	// dispatch also carries every predecessor's output, sized by its
	// OutputBytes.
	InputBytes int
	// OutputBytes is the size of this stage's output: the result frame
	// carries it to the controller, and every successor's dispatch
	// carries it on.
	OutputBytes int
	// Deps lists the indices of the stages whose outputs this stage
	// consumes. The graph over Deps must be acyclic.
	Deps []int
	// Optional marks a stage the job can complete without: when an
	// optional stage exhausts its retry budget the scheduler abandons it
	// (and, transitively, its successors — which Validate requires to be
	// optional too) and the job degrades to a partial result instead of
	// failing.
	Optional bool
}

// JobSpec describes a DAG of dependent stages submitted as one job.
type JobSpec struct {
	Stages []StageSpec
	// ReplicaBudget is the number of extra stage copies the job may
	// spend: allocating K replicas to a stage costs K-1 budget. The
	// scheduler spends it only on critical-path stages (see
	// AllocateReplicas) unless ReplicateAll is set.
	ReplicaBudget int
	// ReplicateAll spreads the budget over every stage in topological
	// order instead of critical-path stages only — the
	// "replicate-everything" comparison arm of E15.
	ReplicateAll bool
	// StageRetries is the per-stage retry budget at the job layer, on
	// top of the task layer's own replica top-ups (0 = no stage
	// retries).
	StageRetries int
	// TaskRetries bounds the task-layer retry rounds of each stage task
	// (DependabilityPolicy.MaxRetries); default 1, so stage failures
	// surface to the job layer quickly instead of stalling in task
	// backoff.
	TaskRetries int
	// Deadline is the absolute virtual time by which the job must
	// complete; zero means none.
	Deadline sim.Time
	// WholeJobRestart selects the naive recovery mode: any stage failure
	// restarts the entire job from scratch (up to jobRestarts times),
	// throwing away all completed stage work — the baseline arm of E15.
	WholeJobRestart bool
}

// jobRestarts bounds a WholeJobRestart job's restarts.
const jobRestarts = 3

// dagDefaults fills zero-value knobs. Kept separate from Validate so
// checkpointed specs round-trip unchanged.
func (s JobSpec) withDefaults() JobSpec {
	if s.TaskRetries == 0 {
		s.TaskRetries = 1
	}
	return s
}

// Validate checks the spec: positive costs, in-range acyclic
// dependencies, and the optional-closure rule (every stage downstream
// of an optional stage must itself be optional, so abandoning an
// optional branch can never strand a required stage).
func (s *JobSpec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("vcloud: job needs at least one stage")
	}
	if s.ReplicaBudget < 0 {
		return fmt.Errorf("vcloud: replica budget must be >= 0, got %d", s.ReplicaBudget)
	}
	if s.StageRetries < 0 || s.TaskRetries < 0 {
		return fmt.Errorf("vcloud: retry budgets must be >= 0")
	}
	for i, st := range s.Stages {
		if st.Ops <= 0 || math.IsNaN(st.Ops) || math.IsInf(st.Ops, 0) {
			return fmt.Errorf("vcloud: stage %d ops must be positive and finite, got %v", i, st.Ops)
		}
		if st.InputBytes < 0 || st.OutputBytes < 0 {
			return fmt.Errorf("vcloud: stage %d byte sizes must be non-negative", i)
		}
		seen := make(map[int]bool, len(st.Deps))
		for _, d := range st.Deps {
			if d < 0 || d >= len(s.Stages) {
				return fmt.Errorf("vcloud: stage %d dep %d out of range", i, d)
			}
			if d == i {
				return fmt.Errorf("vcloud: stage %d depends on itself", i)
			}
			if seen[d] {
				return fmt.Errorf("vcloud: stage %d lists dep %d twice", i, d)
			}
			seen[d] = true
			if s.Stages[d].Optional && !st.Optional {
				return fmt.Errorf("vcloud: required stage %d depends on optional stage %d", i, d)
			}
		}
	}
	if _, err := TopoOrder(s); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a deterministic topological order of the spec's
// stages: Kahn's algorithm resolving ties by smallest stage index, so
// the order depends only on the spec (never on map iteration). It
// errors on cycles.
func TopoOrder(s *JobSpec) ([]int, error) {
	n := len(s.Stages)
	indeg := make([]int, n)
	for i := range s.Stages {
		for _, d := range s.Stages[i].Deps {
			if d >= 0 && d < n {
				indeg[i]++
			}
		}
	}
	succs := make([][]int, n)
	for i := range s.Stages {
		for _, d := range s.Stages[i].Deps {
			if d >= 0 && d < n {
				succs[d] = append(succs[d], i)
			}
		}
	}
	order := make([]int, 0, n)
	placed := make([]bool, n)
	for len(order) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if !placed[i] && indeg[i] == 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("vcloud: job stage graph has a cycle")
		}
		placed[pick] = true
		order = append(order, pick)
		for _, su := range succs[pick] {
			indeg[su]--
		}
	}
	return order, nil
}

// Criticality returns, for each stage, the length in ops of the longest
// dependency path through it: up(s) + down(s) - ops(s), where up is the
// longest path ending at s and down the longest path starting at s
// (both inclusive). A stage is critical when its criticality equals the
// critical-path length — restarting it restarts the job's longest
// chain, which is exactly the restart cost replication should insure
// against. order must be a topological order of spec.
func Criticality(spec *JobSpec, order []int) (crit []float64, pathOps float64) {
	n := len(spec.Stages)
	up := make([]float64, n)
	down := make([]float64, n)
	succs := make([][]int, n)
	for i := range spec.Stages {
		for _, d := range spec.Stages[i].Deps {
			succs[d] = append(succs[d], i)
		}
	}
	for _, i := range order {
		best := 0.0
		for _, d := range spec.Stages[i].Deps {
			if up[d] > best {
				best = up[d]
			}
		}
		up[i] = best + spec.Stages[i].Ops
	}
	for k := n - 1; k >= 0; k-- {
		i := order[k]
		best := 0.0
		for _, su := range succs[i] {
			if down[su] > best {
				best = down[su]
			}
		}
		down[i] = best + spec.Stages[i].Ops
	}
	crit = make([]float64, n)
	for i := 0; i < n; i++ {
		crit[i] = up[i] + down[i] - spec.Stages[i].Ops
		if crit[i] > pathOps {
			pathOps = crit[i]
		}
	}
	return crit, pathOps
}

// maxExtraPerStage caps how many extra copies one stage may absorb, so
// the budget spreads across the critical path instead of piling K=5 on
// its head.
const maxExtraPerStage = 2

// AllocateReplicas spends the job's replica budget and returns the
// per-stage replica count (>= 1 each). Selection is reliability-aware:
// only critical-path stages are candidates (highest criticality first,
// topological position breaking ties) unless ReplicateAll is set, in
// which case every stage is a candidate in topological order. Budget is
// dealt round-robin, one extra copy per pass, capped at
// maxExtraPerStage extras per stage; the invariant sum(alloc[i]-1) <=
// ReplicaBudget always holds.
func AllocateReplicas(spec *JobSpec, order []int) []int {
	n := len(spec.Stages)
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	budget := spec.ReplicaBudget
	if budget <= 0 {
		return alloc
	}
	crit, pathOps := Criticality(spec, order)
	var cands []int
	for _, i := range order {
		if spec.ReplicateAll || crit[i] >= pathOps {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return alloc
	}
	for budget > 0 {
		spent := false
		for _, i := range cands {
			if budget == 0 {
				break
			}
			if alloc[i]-1 >= maxExtraPerStage {
				continue
			}
			alloc[i]++
			budget--
			spent = true
		}
		if !spent {
			break
		}
	}
	return alloc
}

// StageBinding marks a Task as one stage of a DAG job and carries the
// decided values of its predecessors, so the worker computes at once.
type StageBinding struct {
	Job   JobID
	Stage int
	// Inputs are the predecessors' decided values, in Deps order.
	Inputs []uint64
}

// StageDigest is the canonical result of executing a stage: a
// deterministic digest of the job, stage, compute cost and the input
// values the dispatch carried, so honest workers agree and replica
// voting stays decidable. The inputs are values the controller decided
// by vote, so a lie costs one wrong vote on the stage it was told in
// and never reaches a successor.
func StageDigest(job JobID, stage int, ops float64, inputs []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(job))
	mix(uint64(stage))
	mix(math.Float64bits(ops))
	for _, v := range inputs {
		mix(v)
	}
	return h
}

// StageStatus is the lifecycle state of one stage inside the job
// engine.
type StageStatus uint8

// Stage statuses.
const (
	StageWaiting StageStatus = iota + 1
	StageRunning
	StageDone
	StageAbandoned
	StageFailed
)

// String implements fmt.Stringer.
func (s StageStatus) String() string {
	switch s {
	case StageWaiting:
		return "waiting"
	case StageRunning:
		return "running"
	case StageDone:
		return "done"
	case StageAbandoned:
		return "abandoned"
	case StageFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// StageOutcome reports one stage's fate inside a JobResult.
type StageOutcome struct {
	Status StageStatus
}

// JobResult reports a finished DAG job to its submitter.
type JobResult struct {
	OK bool
	// Partial is set when the job completed but one or more optional
	// branches were abandoned (graceful degradation).
	Partial bool
	Reason  FailReason
	Latency sim.Time
	// Restarts counts whole-job restarts (naive mode only).
	Restarts int
	// ExtraReplicas is the budget actually allocated: sum over stages of
	// replicas-1. Never exceeds the spec's ReplicaBudget.
	ExtraReplicas int
	// WastedOps is completed stage work thrown away by whole-job
	// restarts.
	WastedOps float64
	Stages    []StageOutcome
	// Value is a digest over the sink stages' values in index order
	// (abandoned sinks contribute nothing).
	Value uint64
}
