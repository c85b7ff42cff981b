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

// Deployment is an assembled vehicular cloud over a scenario.
type Deployment struct {
	Arch        Architecture
	Stats       *Stats
	Controllers []*Controller
	Members     map[mobility.VehicleID]*Member
	// Runners holds the cluster runners of a dynamic deployment.
	Runners map[mobility.VehicleID]*cluster.Runner

	s   *scenario.Scenario
	cfg DeployConfig
	// dynamic controllers keyed by vehicle.
	dynCtl map[mobility.VehicleID]*Controller
	// emergency records the management-plane flag so controllers elected
	// after SetEmergency inherit it.
	emergency bool
}

// DeployConfig tunes a deployment.
type DeployConfig struct {
	// Controller is applied to every controller created. Its hooks
	// (OnApply, Trace) are re-installed on promoted successors, which
	// restore from hook-free checkpoints. With Controller.Fencing on, a
	// controller that abdicates is removed from Controllers and its
	// vehicle node rejoins as a member.
	Controller ControllerConfig
	// MemberResources maps a vehicle's mobility profile to pool
	// resources; nil derives CPU/Storage/Sensors from the profile.
	MemberResources func(p mobility.Profile) Resources
	// Handover enables member-side proactive handover.
	Handover bool
	// DwellMode selects the estimator members' dwell predictions use.
	// Zero disables dwell awareness.
	DwellMode mobility.DwellMode
	// Failover enables controller checkpoint replication and standby
	// self-promotion on every controller, and tracks promoted successors
	// in Controllers so SubmitAnywhere finds them.
	Failover bool
	// OnAccept observes every fenced advertisement members accept — the
	// chaos harness's "at most one controller per epoch" probe.
	OnAccept func(controller vnet.Addr, e Epoch)
	// Storage, when non-nil, is the vehicular data-storage backend every
	// controller drives (see storage.go): membership churn and
	// partition-heal merges trigger fenced repair passes, and promoted
	// failover successors re-attach it so the service keeps repairing
	// across controller generations.
	Storage storageBackend

	// Unexported wiring installed by DeploySecure.
	memberAuthorize func(id mobility.VehicleID) func(vnet.Addr, func(bool))
	acceptJoinFor   func(ctl vnet.Addr) func(vnet.Addr) bool
	attachAuth      func(node *vnet.Node, identity string) error
}

func defaultResources(p mobility.Profile) Resources {
	return Resources{CPU: p.CPU, Storage: p.Storage, Sensors: p.Sensors}
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
	if cfg.MemberResources == nil {
		cfg.MemberResources = defaultResources
	}
	d := &Deployment{
		Arch:    arch,
		Stats:   stats,
		Members: make(map[mobility.VehicleID]*Member),
		Runners: make(map[mobility.VehicleID]*cluster.Runner),
		s:       s,
		cfg:     cfg,
		dynCtl:  make(map[mobility.VehicleID]*Controller),
	}

	switch arch {
	case Stationary, Infrastructure:
		if err := d.deployFixed(); err != nil {
			return nil, err
		}
	case Dynamic:
		if err := d.deployDynamic(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("vcloud: unknown architecture %d", arch)
	}
	return d, nil
}

// dwellFor builds the controller-side dwell estimator centered on the
// controller node.
func (d *Deployment) dwellFor(ctlNode *vnet.Node) DwellEstimator {
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

// onAbdicate removes an abdicated controller from the deployment and —
// when it ran on a vehicle — re-attaches a member agent on the node, so
// the ex-leader's resources return to the pool it just handed over.
func (d *Deployment) onAbdicate(c *Controller) {
	for i, cc := range d.Controllers {
		if cc == c {
			d.Controllers = append(d.Controllers[:i], d.Controllers[i+1:]...)
			break
		}
	}
	if addr := c.Addr(); !scenario.IsRSU(addr) {
		_ = d.attachMember(mobility.VehicleID(addr))
	}
}

func (d *Deployment) newController(node *vnet.Node) (*Controller, error) {
	cc := d.cfg.Controller
	if cc.OnAbdicate == nil {
		cc.OnAbdicate = d.onAbdicate
	}
	if cc.Dwell == nil {
		cc.Dwell = d.dwellFor(node)
	}
	if d.cfg.acceptJoinFor != nil {
		cc.AcceptJoin = d.cfg.acceptJoinFor(node.Addr())
	}
	c, err := newController(node, cc, d.Stats, d.cfg.leaderMode())
	if err != nil {
		return nil, err
	}
	c.AttachStorage(d.cfg.Storage)
	return c, nil
}

func (d *Deployment) attachMember(id mobility.VehicleID) error {
	node, ok := d.s.Node(id)
	if !ok {
		return fmt.Errorf("vcloud: vehicle %d has no node", id)
	}
	profile, _ := d.s.Mobility.Profile(id)
	mc := MemberConfig{
		Resources: d.cfg.MemberResources(profile),
		Handover:  d.cfg.Handover,
	}
	vid := id
	mc.OnAccept = d.cfg.OnAccept
	mc.OnPromote = func(c *Controller) {
		// The promoted node stopped being a worker; track its controller
		// so SubmitAnywhere and ActiveControllers see the successor.
		delete(d.Members, vid)
		if d.emergency {
			c.SetEmergency(true)
		}
		// Checkpoints carry no function hooks; re-install the
		// deployment's so promoted successors keep reporting applies,
		// abdications and trace events.
		c.cfg.OnApply = d.cfg.Controller.OnApply
		c.cfg.Trace = d.cfg.Controller.Trace
		c.cfg.OnAbdicate = d.onAbdicate
		c.AttachStorage(d.cfg.Storage)
		d.Controllers = append(d.Controllers, c)
	}
	if d.cfg.attachAuth != nil {
		if err := d.cfg.attachAuth(node, fmt.Sprintf("veh-%d", id)); err != nil {
			return err
		}
	}
	if d.cfg.memberAuthorize != nil {
		mc.Authorize = d.cfg.memberAuthorize(id)
	}
	if d.cfg.Handover && d.cfg.DwellMode != 0 {
		radius := d.s.Medium.Params().RangeMax
		mob := d.s.Mobility
		vid := id
		mc.DepartureWarning = func() float64 {
			// Remaining contact with the current controller: dwell within
			// radio range of its (beacon-known) position.
			m := d.Members[vid]
			if m == nil || m.Controller() < 0 {
				return 1e9
			}
			ctlPos, ok := d.s.Medium.Position(m.Controller())
			if !ok {
				return 0
			}
			return mob.EstimateDwell(vid, ctlPos, radius, d.cfg.DwellMode)
		}
	}
	m, err := NewMember(node, mc, d.Stats)
	if err != nil {
		return err
	}
	d.Members[id] = m
	return nil
}

func (d *Deployment) deployFixed() error {
	var ctlNode *vnet.Node
	if len(d.s.RSUs) > 0 {
		ctlNode = d.s.RSUs[0]
	}
	ids := d.s.VehicleIDs()
	slices.Sort(ids)
	for _, id := range ids {
		if err := d.attachMember(id); err != nil {
			return err
		}
	}
	if d.Arch == Infrastructure {
		if len(d.s.RSUs) == 0 {
			return fmt.Errorf("vcloud: infrastructure architecture needs at least one RSU")
		}
		for i, rsu := range d.s.RSUs {
			if d.cfg.attachAuth != nil {
				if err := d.cfg.attachAuth(rsu, fmt.Sprintf("rsu-%d", i)); err != nil {
					return err
				}
			}
			c, err := d.newController(rsu)
			if err != nil {
				return err
			}
			d.Controllers = append(d.Controllers, c)
		}
		return nil
	}
	// Stationary: gate RSU if present, else the lowest-address vehicle
	// coordinates (losing its member role).
	if ctlNode != nil && d.cfg.attachAuth != nil {
		if err := d.cfg.attachAuth(ctlNode, "rsu-gate"); err != nil {
			return err
		}
	}
	if ctlNode == nil {
		if len(ids) == 0 {
			return fmt.Errorf("vcloud: stationary cloud needs vehicles or an RSU")
		}
		first := ids[0]
		d.Members[first].Stop()
		delete(d.Members, first)
		ctlNode, _ = d.s.Node(first)
	}
	c, err := d.newController(ctlNode)
	if err != nil {
		return err
	}
	d.Controllers = append(d.Controllers, c)
	return nil
}

func (d *Deployment) deployDynamic() error {
	ids := d.s.VehicleIDs()
	slices.Sort(ids)
	for _, id := range ids {
		if err := d.attachMember(id); err != nil {
			return err
		}
		node, _ := d.s.Node(id)
		r, err := cluster.NewRunner(node, cluster.MobilitySimilarity{}, time.Second, nil)
		if err != nil {
			return err
		}
		d.Runners[id] = r
		vid := id
		r.OnChange(func(old, new cluster.State) { d.onRoleChange(vid, old, new) })
	}
	return nil
}

// onRoleChange starts a controller when a vehicle becomes a cluster head
// and stops it when it loses headship — the paper's "dynamic role
// assignment" (§III.A).
func (d *Deployment) onRoleChange(id mobility.VehicleID, old, new cluster.State) {
	wasHead := old.Role == cluster.Head
	isHead := new.Role == cluster.Head
	switch {
	case !wasHead && isHead:
		node, ok := d.s.Node(id)
		if !ok {
			return
		}
		c, err := d.newController(node)
		if err != nil {
			return
		}
		c.SetEmergency(d.emergency)
		d.dynCtl[id] = c
		d.Controllers = append(d.Controllers, c)
	case wasHead && !isHead:
		if c, ok := d.dynCtl[id]; ok {
			c.Stop()
			delete(d.dynCtl, id)
			for i, cc := range d.Controllers {
				if cc == c {
					d.Controllers = append(d.Controllers[:i], d.Controllers[i+1:]...)
					break
				}
			}
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
