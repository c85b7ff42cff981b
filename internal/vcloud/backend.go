package vcloud

import (
	"fmt"
	"time"

	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

// Backend abstracts "where computation runs" so the Fig. 2 comparison
// (experiment E1) can drive the identical workload against a
// conventional cloud, a mobile-cloud stand-in, and the vehicular cloud.
type Backend interface {
	// Name identifies the backend in experiment rows.
	Name() string
	// Submit runs the task; done fires at most once (lost submissions
	// during outages may never call back — callers use timeouts, as real
	// clients do).
	Submit(task Task, done func(TaskResult)) error
}

// RemoteCloud models the conventional (or mobile) cloud: tasks cross a
// cellular uplink to a datacenter with the given aggregate compute.
// Mobile clouds are the same structure with less compute and a slower
// link (Fig. 2's middle column). Its exchanges ride an estimator-backed
// uplink sender, so the backend's own traffic feeds congestion feedback
// (see radio.Sender and the placement governor).
type RemoteCloud struct {
	name   string
	kernel *sim.Kernel
	sender *radio.Sender
	// cpu is the datacenter's effective per-task compute rate (ops/s).
	cpu   float64
	stats *Stats
	next  TaskID
}

// NewRemoteCloud creates a remote backend whose traffic rides sender:
// every exchange feeds the sender's bandwidth estimator, so the backend
// observes the congestion it causes.
func NewRemoteCloud(name string, kernel *sim.Kernel, sender *radio.Sender, cpu float64, stats *Stats) (*RemoteCloud, error) {
	if name == "" {
		return nil, fmt.Errorf("vcloud: backend name must not be empty")
	}
	if kernel == nil || sender == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: kernel, sender and stats must not be nil")
	}
	if cpu <= 0 {
		return nil, fmt.Errorf("vcloud: datacenter cpu must be positive, got %v", cpu)
	}
	return &RemoteCloud{name: name, kernel: kernel, sender: sender, cpu: cpu, stats: stats}, nil
}

// Name implements Backend.
func (r *RemoteCloud) Name() string { return r.name }

// Submit implements Backend.
func (r *RemoteCloud) Submit(task Task, done func(TaskResult)) error {
	if err := task.Validate(); err != nil {
		return err
	}
	r.next++
	task.ID = r.next
	r.stats.Submitted.Inc()
	start := r.kernel.Now()
	compute := sim.Time(task.Ops / r.cpu * float64(time.Second))
	sent := r.sender.RoundTrip(task.InputBytes, task.OutputBytes, func() {
		// The round trip models transfer; add datacenter compute.
		r.kernel.After(compute, func() {
			lat := r.kernel.Now() - start
			if task.Deadline > 0 && r.kernel.Now() > task.Deadline {
				r.stats.Failed.Inc()
				if done != nil {
					done(TaskResult{ID: task.ID, OK: false, Latency: lat, Reason: ReasonDeadline})
				}
				return
			}
			r.stats.Completed.Inc()
			r.stats.Latency.ObserveDuration(lat)
			if done != nil {
				done(TaskResult{ID: task.ID, OK: true, Latency: lat})
			}
		})
	})
	if !sent {
		r.stats.Failed.Inc()
		if done != nil {
			done(TaskResult{ID: task.ID, OK: false, Reason: ReasonUplinkDown})
		}
	}
	return nil
}

// DeploymentBackend adapts a whole Deployment to the Backend interface:
// submissions route to the most-members-first active controller, so the
// backend keeps working across controller failover — the vehicle-tier
// target the placement governor drives.
type DeploymentBackend struct {
	D *Deployment
}

// Name implements Backend.
func (b DeploymentBackend) Name() string { return "vehicular-cloud" }

// Submit implements Backend.
func (b DeploymentBackend) Submit(task Task, done func(TaskResult)) error {
	return b.D.SubmitAnywhere(task, done)
}

var (
	_ Backend = (*RemoteCloud)(nil)
	_ Backend = DeploymentBackend{}
)
