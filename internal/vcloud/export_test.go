package vcloud

import (
	"fmt"
	"math"
	"time"

	"vcloud/internal/metrics"
	"vcloud/internal/mobility"
	"vcloud/internal/scenario"
	"vcloud/internal/store"
	"vcloud/internal/vnet"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// NewController starts a controller on node outside any deployment: a
// plain one, or a fenced one (which fails over) under cfg.Fencing.
func NewController(node *vnet.Node, cfg ControllerConfig, stats *Stats) (*Controller, error) {
	return newController(node, cfg, stats, modeOf(cfg, false))
}

// PendingJobs returns how many DAG jobs are in flight.
func (c *Controller) PendingJobs() int { return len(c.jobs) }

// StorageView returns the controller's cluster view for a storage
// backend: members are the live membership table, online means heard
// from within memberTTL, dwell comes from the scheduler's estimator,
// and the epoch is the controller's fencing counter.
func (c *Controller) StorageView() store.View {
	return store.FuncView{
		MembersFn: c.Members,
		OnlineFn: func(a vnet.Addr) bool {
			m := c.members.get(a)
			if m == nil {
				return false
			}
			return c.node.Kernel().Now()-m.lastSeen <= memberTTL
		},
		DwellFn: func(a vnet.Addr) float64 {
			if c.dwell == nil {
				return math.Inf(1)
			}
			return c.dwell(a)
		},
		EpochFn: func() uint64 { return c.lead.epoch.Counter },
	}
}

// CurrentEpoch returns the controller's epoch (zero when unfenced).
func (c *Controller) CurrentEpoch() Epoch { return c.lead.epoch }

// ParkedOutcomes returns how many finished outcomes await standby
// acknowledgement before applying.
func (c *Controller) ParkedOutcomes() int { return len(c.lead.parked) }

// JobCompletionRate returns completed/submitted for DAG jobs.
func (s *Stats) JobCompletionRate() float64 {
	return metrics.Ratio(s.JobsCompleted.Value(), s.JobsSubmitted.Value())
}

// Emergency reports the management-plane emergency flag.
func (c *Controller) Emergency() bool { return c.emergency }

// Snapshot returns the controller's current membership view, each
// member's CPU by address — the §V.A "recover the snapshot of the
// topology" management operation.
func (c *Controller) Snapshot() map[vnet.Addr]float64 {
	out := make(map[vnet.Addr]float64, len(c.members))
	for _, m := range c.members {
		out[m.addr] = m.cpu
	}
	return out
}

// PendingTasks returns how many tasks are in flight.
func (c *Controller) PendingTasks() int { return len(c.tasks) }

// TierLabel returns the Tier label of the tier at index i.
func (g *Governor) TierLabel(i int) Tier {
	if i < 0 || i >= len(g.tiers) {
		return -1
	}
	return g.tiers[i].cfg.Tier
}

// PreferredTier returns the hysteresis-stable current choice (-1 before
// any placement).
func (g *Governor) PreferredTier() int { return g.preferred }

// MemberNode returns the vnet node of a member vehicle.
func (d *Deployment) MemberNode(id mobility.VehicleID) (*vnet.Node, bool) {
	return d.s.Node(id)
}

// Running returns the number of tasks executing locally.
func (m *Member) Running() int { return len(m.current) }

// HandleTask hands a dispatch to the member's task handler, for tests
// that take over the node's task messages.
func (m *Member) HandleTask(msg vnet.Message, from vnet.Addr) { m.onTask(msg, from) }

// Standby reports whether this member currently holds a checkpoint as
// the designated failover successor.
func (m *Member) Standby() bool { return m.lead.standbyCkpt != nil }

// VehicularBackend adapts a Controller to the Backend interface.
type VehicularBackend struct {
	C *Controller
}

// Name implements Backend.
func (v VehicularBackend) Name() string { return "vehicular" }

// Submit implements Backend.
func (v VehicularBackend) Submit(task Task, done func(TaskResult)) error {
	_, err := v.C.Submit(task, done)
	return err
}

// Stopped reports whether the member agent has stopped.
func (m *Member) Stopped() bool { return m.stopped }

// ghost is an address no node has: probes below name it as a rival
// controller, so whatever an agent sends it in reply is lost.
const ghost = vnet.Addr(scenario.RSUBase - 1)

// ServesLeadership reports whether vehicle id's member agent hears
// advertisements (adv) and checkpoints (ckpt): its node sends itself an
// advertisement from a generation above every other and a checkpoint
// that does not decode, and the kernel runs the millisecond it takes
// both to land (a 64-byte frame is on the air for under 0.1 ms per
// attempt). The probe leaves the agent following the ghost controller.
func (d *Deployment) ServesLeadership(id mobility.VehicleID) (adv, ckpt bool, err error) {
	m := d.Members[id]
	if m == nil {
		return false, false, fmt.Errorf("vehicle %d runs no member agent", id)
	}
	node, self := m.node, m.node.Addr()
	rejected := d.Stats.CkptRejected.Value()
	node.SendTo(self, node.NewMessage(self, kindAdv, 64, 1, advMsg{Controller: ghost, Standby: -1, Epoch: NextEpoch(1<<40, ghost)}))
	node.SendTo(self, node.NewMessage(self, kindCkpt, 64, 1, ckptMsg{Data: []byte("not a checkpoint")}))
	if err := node.Kernel().Run(node.Kernel().Now() + time.Millisecond); err != nil {
		return false, false, err
	}
	if m.stopped {
		return false, false, fmt.Errorf("vehicle %d's agent stopped during the probe", id)
	}
	return m.Controller() == ghost, d.Stats.CkptRejected.Value() > rejected, nil
}

// Depose hands the controller a rival advertisement from a generation
// above its own, as a healed partition would: a fenced controller
// abdicates to the ghost.
func (c *Controller) Depose() {
	adv := advMsg{Controller: ghost, Standby: -1, Epoch: NextEpoch(c.lead.epoch.Counter, ghost)}
	c.onRivalAdv(vnet.Message{Origin: ghost, Kind: kindAdv, Payload: adv}, ghost)
}
