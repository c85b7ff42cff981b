// Package vcloud is the paper's core contribution operationalized: a
// vehicular cloud that pools the sensing, compute, storage and network
// resources of nearby vehicles (§II.C), organized under any of the three
// Fig. 4 architectures — stationary (parked vehicles), infrastructure-
// based (RSU-coordinated), and dynamic (cluster-head-coordinated, pure
// V2V).
//
// The package provides:
//
//   - the task model and a dwell-aware scheduler (§III.A: "how to
//     estimate the duration of stay of this vehicle");
//   - task handover of partially executed work when a member departs,
//     against the drop-and-resubmit baseline whose waste §III.A calls
//     out (experiment E7);
//   - a file replication manager targeting availability under churn
//     (§III.A's "how many copies of a shared file", experiment E8);
//   - cloud backends for the Fig. 2 comparison: the same workload can
//     run against a conventional cloud (cellular uplink), a mobile-cloud
//     stand-in, or the vehicular cloud (experiment E1);
//   - the management plane: emergency mode, topology snapshots and
//     authority-side identity revelation (§V.A).
package vcloud

import (
	"fmt"
	"math"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// TaskID identifies a submitted task.
type TaskID uint64

// Task is a unit of offloadable computation.
type Task struct {
	ID TaskID
	// Ops is the computational size in abstract operations; a member
	// with CPU capacity c ops/s finishes in Ops/c seconds.
	Ops float64
	// InputBytes must reach the worker before compute starts; OutputBytes
	// return with the result.
	InputBytes  int
	OutputBytes int
	// Deadline is the absolute virtual time by which the submitter needs
	// the result; zero means none.
	Deadline sim.Time
	// Depend, when non-nil, overrides the controller's default
	// dependability policy for this task: redundant replicas, retry
	// budget, voting (see DependabilityPolicy).
	Depend *DependabilityPolicy
	// Stage, when non-nil, marks this task as one stage of a DAG job:
	// it carries the predecessors' decided values the worker computes
	// on, and the controller routes the outcome to the job engine
	// (dag.go).
	Stage *StageBinding
	// Optional marks low-criticality work the placement governor may
	// shed first under overload (governor.go); it does not enter
	// TaskValue, so shedding policy cannot change result digests.
	Optional bool
}

// Validate checks task sanity.
func (t *Task) Validate() error {
	if t.Ops <= 0 || math.IsNaN(t.Ops) || math.IsInf(t.Ops, 0) {
		return fmt.Errorf("vcloud: task ops must be positive and finite, got %v", t.Ops)
	}
	if t.InputBytes < 0 || t.OutputBytes < 0 {
		return fmt.Errorf("vcloud: task byte sizes must be non-negative")
	}
	if t.Depend != nil {
		if err := t.Depend.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TaskValue is the canonical result of executing a task: a deterministic
// digest of the task definition that every honest worker computes
// identically. Having a comparable value is what makes redundant
// execution decidable — the controller's majority vote compares replica
// values, and a Byzantine worker is one that returns something else
// (see internal/attack.Byzantify).
func TaskValue(t Task) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(t.ID))
	mix(math.Float64bits(t.Ops))
	mix(uint64(t.InputBytes))
	mix(uint64(t.OutputBytes))
	return h
}

// TaskStatus is the lifecycle state of a task inside the controller.
type TaskStatus int

// Task statuses.
const (
	TaskPending TaskStatus = iota + 1
	TaskRunning
	TaskCompleted
	TaskFailed
)

// String implements fmt.Stringer.
func (s TaskStatus) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskCompleted:
		return "completed"
	case TaskFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// FailReason is a structured failure cause carried on TaskResult (and
// JobResult). Schedulers branch on these values — the DAG engine decides
// between stage retry, forming-cloud backoff and job abort from the
// reason alone — so they are stable identifiers, not display strings.
type FailReason string

// Failure reasons. Empty means success.
const (
	ReasonNone              FailReason = ""
	ReasonRetriesExhausted  FailReason = "retries-exhausted"
	ReasonDeadline          FailReason = "deadline"
	ReasonNoEligibleMember  FailReason = "no-eligible-member"
	ReasonNoQuorum          FailReason = "no-quorum"
	ReasonControllerStopped FailReason = "controller-stopped"
	ReasonUplinkDown        FailReason = "uplink-down"
	// ReasonStageFailed marks a job that failed because a required stage
	// exhausted its budget (job-level only).
	ReasonStageFailed FailReason = "stage-failed"
	// ReasonAdmission marks work the placement governor refused up
	// front: no tier's estimated completion time fits the deadline.
	ReasonAdmission FailReason = "admission-rejected"
	// ReasonBackpressure marks work bounced because every eligible
	// tier's bounded queue was full.
	ReasonBackpressure FailReason = "backpressure"
	// ReasonShed marks optional work dropped under overload to protect
	// required work (governor shedding policy).
	ReasonShed FailReason = "load-shed"
)

// TaskResult reports a finished task to its submitter.
type TaskResult struct {
	ID        TaskID
	OK        bool
	Latency   sim.Time
	Handovers int
	// Retries counts the retry rounds the task's dependability policy
	// spent; it is populated on every completion path.
	Retries int
	Reason  FailReason
	// Value is the computed result: the winning value of the replica
	// vote (with one copy, that copy's value). Compare against TaskValue
	// to check correctness.
	Value uint64
	// Replicas is how many copies were dispatched in total, handover
	// continuations and retry rounds included (0 when the task never
	// reached a worker).
	Replicas int
	// Voters lists the workers whose results were counted in the
	// deciding vote, in dispatch order (nil when the task failed before
	// any result arrived).
	Voters []vnet.Addr
}
