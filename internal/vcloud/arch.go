package vcloud

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"vcloud/internal/cluster"
	"vcloud/internal/mobility"
	"vcloud/internal/scenario"
	"vcloud/internal/vnet"
)

// Architecture names the three Fig. 4 vehicular-cloud types.
type Architecture int

// Architectures.
const (
	Stationary Architecture = iota + 1
	Infrastructure
	Dynamic
)

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case Stationary:
		return "stationary"
	case Infrastructure:
		return "infrastructure"
	case Dynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// Deployment is an assembled vehicular cloud over a scenario, and the
// one owner of the controllers and member agents it runs.
type Deployment struct {
	Stats       *Stats
	Controllers []*Controller
	Members     map[mobility.VehicleID]*Member

	s   *scenario.Scenario
	cfg DeployConfig
	// emergency records the management-plane flag so controllers elected
	// after SetEmergency inherit it.
	emergency bool
}

// DeployConfig tunes a deployment.
type DeployConfig struct {
	// Controller configures every controller the deployment starts —
	// at deploy, on election and on failover promotion alike. With
	// Controller.Fencing on, a controller that abdicates is removed from
	// Controllers and its vehicle node rejoins as a member.
	Controller ControllerConfig
	// Handover enables member-side proactive handover.
	Handover bool
	// DwellMode selects the estimator members' dwell predictions use.
	// Zero disables dwell awareness.
	DwellMode mobility.DwellMode
	// Failover enables controller checkpoint replication and standby
	// self-promotion on every controller, and tracks promoted successors
	// in Controllers so SubmitAnywhere finds them.
	Failover bool
	// Storage, when non-nil, is the vehicular data-storage backend every
	// controller drives (see storage.go): membership churn and
	// partition-heal merges trigger fenced repair passes, and failover
	// successors drive it too, so the service keeps repairing across
	// controller generations.
	Storage storageBackend

	// sec is the secure deployment DeploySecure wraps around this one
	// (nil when joins are not authenticated).
	sec *SecureDeployment
}

// Deploy assembles a vehicular cloud of the given architecture over the
// scenario. For Infrastructure, RSUs must already have been added to the
// scenario; each becomes a controller. For Stationary, the scenario
// should contain parked vehicles and the first RSU (the "gate server")
// is the controller — if no RSU exists, the lowest-address vehicle
// coordinates. Dynamic elects controllers via clustering.
func Deploy(s *scenario.Scenario, arch Architecture, cfg DeployConfig, stats *Stats) (*Deployment, error) {
	if s == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: scenario and stats must not be nil")
	}
	if arch < Stationary || arch > Dynamic {
		return nil, fmt.Errorf("vcloud: unknown architecture %d", arch)
	}
	d := &Deployment{
		Stats:   stats,
		Members: make(map[mobility.VehicleID]*Member),
		s:       s,
		cfg:     cfg,
	}
	ids := s.VehicleIDs()
	slices.Sort(ids)
	// A stationary cloud without a gate RSU is coordinated by its
	// lowest-address vehicle, which therefore runs no member agent.
	vehicleLeads := arch == Stationary && len(s.RSUs) == 0
	for i, id := range ids {
		node, ok := s.Node(id)
		if !ok {
			return nil, fmt.Errorf("vcloud: vehicle %d has no node", id)
		}
		if err := d.enroll(node, fmt.Sprintf("veh-%d", id)); err != nil {
			return nil, err
		}
		if vehicleLeads && i == 0 {
			continue
		}
		if err := d.startMember(id); err != nil {
			return nil, err
		}
		if arch == Dynamic {
			r, err := cluster.NewRunner(node, cluster.MobilitySimilarity{}, time.Second, nil)
			if err != nil {
				return nil, err
			}
			vid := id
			r.OnChange(func(old, new cluster.State) { d.onRoleChange(vid, old, new) })
		}
	}
	switch arch {
	case Infrastructure:
		if len(s.RSUs) == 0 {
			return nil, fmt.Errorf("vcloud: infrastructure architecture needs at least one RSU")
		}
		for i, rsu := range s.RSUs {
			if err := d.enroll(rsu, fmt.Sprintf("rsu-%d", i)); err != nil {
				return nil, err
			}
			if err := d.startController(rsu, nil); err != nil {
				return nil, err
			}
		}
	case Stationary:
		var node *vnet.Node
		switch {
		case !vehicleLeads:
			node = s.RSUs[0]
			if err := d.enroll(node, "rsu-gate"); err != nil {
				return nil, err
			}
		case len(ids) > 0:
			node, _ = s.Node(ids[0])
		default:
			return nil, fmt.Errorf("vcloud: stationary cloud needs vehicles or an RSU")
		}
		if err := d.startController(node, nil); err != nil {
			return nil, err
		}
	case Dynamic: // heads start controllers as they are elected
	}
	return d, nil
}

// enroll is a node's one-time setup: in a secure deployment, its TA
// enrollment and authenticator.
func (d *Deployment) enroll(node *vnet.Node, identity string) error {
	if d.cfg.sec == nil {
		return nil
	}
	return d.cfg.sec.attachAuth(node, identity)
}

// secure is the deployment's authentication layer, nil when joins are
// not authenticated or the agent asking runs outside any deployment.
func (d *Deployment) secure() *SecureDeployment {
	if d == nil {
		return nil
	}
	return d.cfg.sec
}

// admits reports whether the controller at ctl may take member's join:
// in a secure deployment only once ctl verified the member's credentials
// as responder during its handshake (§V.A).
func (d *Deployment) admits(ctl, member vnet.Addr) bool {
	sec := d.secure()
	return sec == nil || sec.verified[ctl][member]
}

// dwellFor builds the controller-side dwell estimator centered on the
// controller node.
func (d *Deployment) dwellFor(ctlNode *vnet.Node) dwellEstimator {
	if d.cfg.DwellMode == 0 {
		return nil
	}
	radius := d.s.Medium.Params().RangeMax
	return func(member vnet.Addr) float64 {
		if scenario.IsRSU(member) {
			return 1e9
		}
		return d.s.Mobility.EstimateDwell(mobility.VehicleID(member), ctlNode.Position(), radius, d.cfg.DwellMode)
	}
}

// contactLeft predicts m's seconds of contact left with the controller
// it follows: its dwell within radio range of the controller's
// beacon-known position. ok is false without dwell awareness.
func (d *Deployment) contactLeft(m *Member) (window float64, ok bool) {
	if d == nil || d.cfg.DwellMode == 0 {
		return 0, false
	}
	if m.Controller() < 0 {
		return 1e9, true
	}
	ctlPos, known := d.s.Medium.Position(m.Controller())
	if !known {
		return 0, true
	}
	return d.s.Mobility.EstimateDwell(mobility.VehicleID(m.Addr()), ctlPos, d.s.Medium.Params().RangeMax, d.cfg.DwellMode), true
}

// startController is the one constructor of the deployment's
// controllers — fixed or infrastructure at deploy, an elected dynamic
// head, or, with ckpt non-nil, a failover successor seeded from the
// checkpoint once its hooks are in place. Each gets the same hook set:
// the ControllerConfig, a dwell estimator centered on node, the join
// gate, storage and the emergency flag.
func (d *Deployment) startController(node *vnet.Node, ckpt *Checkpoint) error {
	mode := d.cfg.leaderMode()
	if ckpt != nil {
		// A successor is fenced exactly when its checkpoint is.
		mode = modeOf(ControllerConfig{Fencing: !ckpt.Epoch.Zero()}, true)
	}
	c, err := newController(node, d.cfg.Controller, d.Stats, mode)
	if err != nil {
		return err
	}
	c.d = d
	c.dwell = d.dwellFor(node)
	c.AttachStorage(d.cfg.Storage)
	c.emergency = d.emergency
	if ckpt != nil {
		c.restore(ckpt)
	}
	d.Controllers = append(d.Controllers, c)
	return nil
}

// promote starts the failover successor a member on node promotes to,
// seeded from its standby checkpoint; the member agent has stopped, and
// the vehicle now coordinates instead of working. A node runs one
// controller: the agent of a dynamic head that promotes stops the head's
// own, whose handlers the successor's take over.
func (d *Deployment) promote(node *vnet.Node, ckpt *Checkpoint) {
	delete(d.Members, mobility.VehicleID(node.Addr()))
	if c := d.controllerOn(node.Addr()); c != nil && !c.Stopped() {
		c.Stop()
		d.untrack(c)
	}
	if d.startController(node, ckpt) == nil {
		d.Stats.Failovers.Inc()
	}
}

// startMember starts vehicle id's member agent in place of any the
// deployment still tracks there. It does not enroll the node again:
// its credentials outlive its agents.
func (d *Deployment) startMember(id mobility.VehicleID) error {
	node, ok := d.s.Node(id)
	if !ok {
		return fmt.Errorf("vcloud: vehicle %d has no node", id)
	}
	if old := d.Members[id]; old != nil {
		old.Stop()
	}
	profile, _ := d.s.Mobility.Profile(id)
	m, err := NewMember(node, MemberConfig{CPU: profile.CPU, Handover: d.cfg.Handover}, d.Stats)
	if err != nil {
		return err
	}
	m.d = d
	d.Members[id] = m
	return nil
}

// Rejoin starts a wiped member agent on vehicle id, configured like
// every other agent of the deployment — a killed member coming back.
func (d *Deployment) Rejoin(id mobility.VehicleID) error { return d.startMember(id) }

// retire takes a controller that stopped leading (head loss or
// abdication) out of Controllers and leaves its vehicle exactly one
// member agent: the one it had, its handlers (which the controller's
// took over) attached again, or a fresh one.
func (d *Deployment) retire(c *Controller) {
	d.untrack(c)
	if scenario.IsRSU(c.Addr()) {
		return
	}
	id := mobility.VehicleID(c.Addr())
	if m := d.Members[id]; m != nil {
		m.handle(true)
		return
	}
	// A vehicle whose profile no agent can run on (no CPU) stays
	// without one, as it was at deploy.
	_ = d.startMember(id)
}

// untrack removes c from Controllers.
func (d *Deployment) untrack(c *Controller) {
	if i := slices.Index(d.Controllers, c); i >= 0 {
		d.Controllers = slices.Delete(d.Controllers, i, i+1)
	}
}

// controllerOn returns the newest controller the deployment tracks on
// addr (nil when none).
func (d *Deployment) controllerOn(addr vnet.Addr) *Controller {
	for i := len(d.Controllers) - 1; i >= 0; i-- {
		if c := d.Controllers[i]; c.Addr() == addr {
			return c
		}
	}
	return nil
}

// onRoleChange starts a controller when a vehicle becomes a cluster head
// and retires it when the vehicle loses headship — the paper's "dynamic
// role assignment" (§III.A). A node runs at most one controller: one
// still leading there (a failover successor) serves as the head's.
func (d *Deployment) onRoleChange(id mobility.VehicleID, old, new cluster.State) {
	wasHead := old.Role == cluster.Head
	isHead := new.Role == cluster.Head
	switch {
	case !wasHead && isHead:
		node, ok := d.s.Node(id)
		if c := d.controllerOn(vnet.Addr(id)); !ok || (c != nil && !c.Stopped()) {
			return
		}
		// An error leaves the vehicle without a controller; the next
		// election tries again.
		_ = d.startController(node, nil)
	case wasHead && !isHead:
		if c := d.controllerOn(vnet.Addr(id)); c != nil {
			c.Stop()
			d.retire(c)
		}
	}
}

// ActiveControllers returns the currently live controllers (stopped and
// crashed ones are skipped).
func (d *Deployment) ActiveControllers() []*Controller {
	out := make([]*Controller, 0, len(d.Controllers))
	for _, c := range d.Controllers {
		if !c.Stopped() {
			out = append(out, c)
		}
	}
	return out
}

// SubmitAnywhere submits a task to the live controller with the most
// members (a client-side broker), falling back to the next-best
// controller when one refuses — a fenced controller whose leadership
// lease expired rejects new work rather than risking double dispatch.
// It fails when no controller exists or all of them refuse.
func (d *Deployment) SubmitAnywhere(task Task, done func(TaskResult)) error {
	return d.broker(func(c *Controller) error {
		_, err := c.Submit(task, done)
		return err
	})
}

// SubmitJobAnywhere submits a DAG job through the same client-side
// broker as SubmitAnywhere. The callback does not survive a controller
// failover (the job itself does — it rides checkpoints).
func (d *Deployment) SubmitJobAnywhere(spec JobSpec, done func(JobResult)) error {
	return d.broker(func(c *Controller) error {
		_, err := c.SubmitJob(spec, done)
		return err
	})
}

// broker offers a submission to the live controllers, most members
// first (address breaks ties), until one accepts; it returns the last
// refusal when none does.
func (d *Deployment) broker(submit func(*Controller) error) error {
	cands := d.ActiveControllers()
	if len(cands) == 0 {
		return fmt.Errorf("vcloud: no active controller (cloud not formed)")
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].NumMembers() != cands[j].NumMembers() {
			return cands[i].NumMembers() > cands[j].NumMembers()
		}
		return cands[i].Addr() < cands[j].Addr()
	})
	var err error
	for _, c := range cands {
		if err = submit(c); err == nil {
			return nil
		}
	}
	return err
}

// SetEmergency flips emergency mode on every current controller and on
// controllers elected later (dynamic clouds elect heads continuously).
func (d *Deployment) SetEmergency(on bool) {
	d.emergency = on
	for _, c := range d.Controllers {
		c.SetEmergency(on)
	}
}
