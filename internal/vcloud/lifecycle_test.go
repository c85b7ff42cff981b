package vcloud_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vcloud/internal/auth"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/pki"
	"vcloud/internal/scenario"
	"vcloud/internal/trace"
	"vcloud/internal/trust"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// failOver starts s with the deployment d, crashes the gate controller
// once a standby holds its checkpoint and returns the promoted successor.
func failOver(t *testing.T, s *scenario.Scenario, d *vcloud.Deployment) *vcloud.Controller {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]
	gate.Crash()
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	live := d.ActiveControllers()
	if len(live) != 1 || live[0] == gate {
		t.Fatalf("%d live controllers after the crash, want the successor alone", len(live))
	}
	return live[0]
}

// TestSuccessorKeepsDeploymentHooks: a failover successor is started by
// its deployment like any other controller, so it keeps the trust gate,
// the trace sink, the dwell estimator and the join gate its predecessor
// ran with. It is
// one of three tests, with TestDynamicFencedAgentLifecycle and
// TestSecureAbdicationRejoinsAsMember, that hold under -race that the
// deployment owns every controller and member agent.
func TestSuccessorKeepsDeploymentHooks(t *testing.T) {
	t.Run("trust gate", func(t *testing.T) {
		s := parkingScenario(t, 8)
		ws, err := trust.NewWorkerSet(s.Kernel.Now, 0)
		if err != nil {
			t.Fatal(err)
		}
		const threshold = 0.4
		stats := &vcloud.Stats{}
		d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
			Failover: true,
			Controller: vcloud.ControllerConfig{
				Depend:  &vcloud.DependabilityPolicy{TrustThreshold: threshold},
				Workers: ws,
			},
		}, stats)
		if err != nil {
			t.Fatal(err)
		}
		// Vehicles 0 (the standby, so the successor) and 1 and 2 keep the
		// prior; every other one is distrusted before the cloud forms.
		for _, id := range s.VehicleIDs() {
			if id > 2 {
				ws.Bad(vnet.Addr(id), 10)
			}
		}
		succ := failOver(t, s, d)
		if succ.Addr() != 0 {
			t.Fatalf("successor runs on %d, want vehicle 0", succ.Addr())
		}
		var voters []vnet.Addr
		for i := 0; i < 10; i++ {
			if _, err := succ.Submit(vcloud.Task{Ops: 500}, func(r vcloud.TaskResult) {
				if r.OK {
					voters = append(voters, r.Voters...)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if len(voters) == 0 {
			t.Fatal("the successor completed no task")
		}
		for _, a := range voters {
			if score := ws.Score(a); score < threshold {
				t.Errorf("successor placed a copy on member %d, trust %.2f below the %.2f gate", a, score, threshold)
			}
		}
	})
	t.Run("trace sink", func(t *testing.T) {
		s := parkingScenario(t, 8)
		applied := map[int32]int{} // outcomes applied, by controller node
		d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
			Failover: true,
			Controller: vcloud.ControllerConfig{Trace: func(ev trace.Event) {
				if ev.Kind == trace.Apply {
					applied[ev.Node]++
				}
			}},
		}, &vcloud.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		succ := failOver(t, s, d)
		if _, err := succ.Submit(vcloud.Task{Ops: 500}, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if applied[int32(succ.Addr())] == 0 {
			t.Errorf("the deployment's sink saw no outcome the successor applied (applies by node: %v)", applied)
		}
	})
	t.Run("dwell", func(t *testing.T) {
		s := parkingScenario(t, 8)
		d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
			Failover:  true,
			DwellMode: mobility.DwellRouteAware,
		}, &vcloud.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		gate := s.RSUs[0].Addr()
		succ := failOver(t, s, d)
		// The deployment's estimator rates an RSU at 1e9 s; a controller
		// without one assumes everyone stays forever.
		if got := succ.StorageView().Dwell(gate); got != 1e9 {
			t.Errorf("successor's dwell for the gate RSU = %v, want the deployment estimator's 1e9", got)
		}
	})
	t.Run("join gate", func(t *testing.T) {
		s := parkingScenario(t, 10)
		ta, err := pki.New("TA", rand.New(rand.NewSource(31)), pki.Config{PoolSize: 10})
		if err != nil {
			t.Fatal(err)
		}
		sd, err := vcloud.DeploySecure(s, vcloud.Stationary, vcloud.DeployConfig{Failover: true},
			vcloud.Security{TA: ta, Metrics: &auth.Metrics{}}, &vcloud.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		// An edge server joins without a handshake: no controller of the
		// secure cloud has verified it.
		rsu, err := s.AddRSU(geo.Point{X: 20, Y: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vcloud.NewEdgeServer(rsu, vcloud.EdgeConfig{CPU: 5000}, sd.Stats); err != nil {
			t.Fatal(err)
		}
		succ := failOver(t, s, sd.Deployment)
		if succ.NumMembers() == 0 {
			t.Fatal("no authenticated member joined the successor")
		}
		if slices.Contains(succ.Members(), rsu.Addr()) {
			t.Error("the successor admitted a member it never verified")
		}
	})
}

// TestDynamicFencedAgentLifecycle: in a dynamic, fenced cloud heads come
// and go and abdicate, yet every vehicle keeps exactly one live member
// agent — none runs untracked beside it — every ex-head's agent hears
// advertisements and checkpoints again once its controller is gone, and
// no node ever runs two live controllers. Seed 4 has heads whose own
// agents promote.
func TestDynamicFencedAgentLifecycle(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { dynamicFencedLifecycle(t, seed) })
	}
}

func dynamicFencedLifecycle(t *testing.T, seed int64) {
	s := highwayScenario(t, seed, 40)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Dynamic, vcloud.DeployConfig{
		Failover:   true,
		Controller: vcloud.ControllerConfig{Fencing: true},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	heads := map[vnet.Addr]bool{}
	shared := 0 // samples where two live controllers share a node
	if _, err := s.Kernel.Every(500*time.Millisecond, func() {
		live := map[vnet.Addr]bool{}
		for _, c := range d.ActiveControllers() {
			if live[c.Addr()] {
				shared++
			}
			live[c.Addr()] = true
		}
		for _, c := range d.Controllers {
			heads[c.Addr()] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The deployment tracks every member agent it starts in d.Members
	// from the event that starts it, so looking after every event sees
	// each one.
	started := map[*vcloud.Member]bool{}
	look := func() {
		for _, m := range d.Members {
			started[m] = true
		}
	}
	look()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	end := s.Kernel.Now() + 120*time.Second
	for at, ok := s.Kernel.NextEventTime(); ok && at <= end; at, ok = s.Kernel.NextEventTime() {
		s.Kernel.Step()
		look()
	}
	if stats.Abdications.Value() == 0 {
		t.Fatal("no controller abdicated: the run does not exercise retire")
	}
	if shared > 0 {
		t.Errorf("two live controllers shared a node in %d samples", shared)
	}
	// A promotion is the one way an agent stops here; every other agent
	// started must be the one its vehicle is tracked with.
	if live := len(started) - int(stats.Failovers.Value()); live != len(d.Members) {
		t.Errorf("%d member agents started, %d stopped by promotion: %d live, but %d tracked",
			len(started), stats.Failovers.Value(), live, len(d.Members))
	}
	for _, id := range s.VehicleIDs() {
		if m := d.Members[id]; (m == nil || m.Stopped()) && !leads(d, vnet.Addr(id)) {
			t.Errorf("vehicle %d runs neither a live member agent nor a controller", id)
		}
	}
	exHeads := 0
	for _, id := range s.VehicleIDs() {
		// Each probe runs the kernel on, and a standby may promote
		// meanwhile, so leadership is read afresh before each one.
		a := vnet.Addr(id)
		if !heads[a] || leads(d, a) {
			continue
		}
		exHeads++
		adv, ckpt, err := d.ServesLeadership(id)
		if err != nil {
			t.Fatal(err)
		}
		if !adv || !ckpt {
			t.Errorf("ex-head %d: member agent hears advertisements=%v checkpoints=%v, want both", id, adv, ckpt)
		}
	}
	if exHeads == 0 {
		t.Fatal("no vehicle stopped leading: the run does not exercise retire")
	}
}

// leads reports whether a live controller of d runs on node a.
func leads(d *vcloud.Deployment, a vnet.Addr) bool {
	for _, c := range d.ActiveControllers() {
		if c.Addr() == a {
			return true
		}
	}
	return false
}

// TestSecureAbdicationRejoinsAsMember: a vehicle controller of a secure,
// fenced cloud that abdicates gets a member agent back. Its node was
// enrolled once at deploy, and starting the agent must not enroll it
// again.
func TestSecureAbdicationRejoinsAsMember(t *testing.T) {
	s := highwayScenario(t, 1, 6) // no RSU: vehicle 0 coordinates
	ta, err := pki.New("TA", rand.New(rand.NewSource(7)), pki.Config{PoolSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := vcloud.DeploySecure(s, vcloud.Stationary, vcloud.DeployConfig{
		Failover:   true,
		Controller: vcloud.ControllerConfig{Fencing: true},
	}, vcloud.Security{TA: ta, Metrics: &auth.Metrics{}}, &vcloud.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctl := sd.Controllers[0]
	if ctl.Addr() != 0 || sd.Members[0] != nil {
		t.Fatalf("controller on %d, vehicle 0 member %v: want vehicle 0 coordinating", ctl.Addr(), sd.Members[0])
	}
	ctl.Depose()
	if !ctl.Stopped() || len(sd.Controllers) != 0 {
		t.Fatalf("deposed controller stopped=%v, %d controllers tracked: want it abdicated and retired", ctl.Stopped(), len(sd.Controllers))
	}
	if m := sd.Members[0]; m == nil || m.Stopped() {
		t.Fatal("the abdicated vehicle runs no member agent")
	}
}
