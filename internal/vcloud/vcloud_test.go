package vcloud_test

import (
	"sort"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
)

func parkingScenario(t testing.TB, vehicles int) *scenario.Scenario {
	t.Helper()
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 3, AisleLenM: 150, AisleGapM: 40})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.New(scenario.Spec{Seed: 1, Network: net, NumVehicles: vehicles, Parked: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	return s
}

func highwayScenario(t testing.TB, seed int64, vehicles int) *scenario.Scenario {
	t.Helper()
	net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 25, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.New(scenario.Spec{Seed: seed, Network: net, NumVehicles: vehicles})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTaskValidate(t *testing.T) {
	ok := vcloud.Task{Ops: 100, InputBytes: 10, OutputBytes: 10}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	bad := []vcloud.Task{
		{Ops: 0},
		{Ops: -5},
		{Ops: 10, InputBytes: -1},
		{Ops: 10, OutputBytes: -1},
	}
	for i, tk := range bad {
		if err := tk.Validate(); err == nil {
			t.Errorf("bad task %d accepted", i)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if vcloud.TaskPending.String() != "pending" || vcloud.TaskCompleted.String() != "completed" ||
		vcloud.TaskRunning.String() != "running" || vcloud.TaskFailed.String() != "failed" {
		t.Error("task status strings")
	}
	if vcloud.TaskStatus(0).String() != "unknown" {
		t.Error("zero status")
	}
	if vcloud.Stationary.String() != "stationary" || vcloud.Infrastructure.String() != "infrastructure" ||
		vcloud.Dynamic.String() != "dynamic" || vcloud.Architecture(0).String() != "unknown" {
		t.Error("architecture strings")
	}
}

func TestHasSensor(t *testing.T) {
	r := vcloud.Resources{Sensors: []string{"camera", "lidar"}}
	if !r.HasSensor("lidar") || !r.HasSensor("") || r.HasSensor("radar") {
		t.Error("HasSensor wrong")
	}
}

func TestStationaryCloudCompletesTasks(t *testing.T) {
	s := parkingScenario(t, 12)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Controllers) != 1 {
		t.Fatalf("controllers = %d", len(d.Controllers))
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Let membership form.
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Controllers[0].NumMembers() < 8 {
		t.Fatalf("members = %d, want most of 12", d.Controllers[0].NumMembers())
	}
	completed := 0
	for i := 0; i < 20; i++ {
		task := vcloud.Task{Ops: 500, InputBytes: 2000, OutputBytes: 1000}
		if err := d.SubmitAnywhere(task, func(r vcloud.TaskResult) {
			if r.OK {
				completed++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if completed < 19 {
		t.Errorf("completed %d/20 (failed=%d retries=%d)", completed, stats.Failed.Value(), stats.Retries.Value())
	}
	if stats.CompletionRate() < 0.9 {
		t.Errorf("completion rate %v", stats.CompletionRate())
	}
	if stats.Latency.Count() == 0 || stats.Latency.Mean() <= 0 {
		t.Error("latency histogram empty")
	}
}

func TestDeployValidation(t *testing.T) {
	s := parkingScenario(t, 2)
	stats := &vcloud.Stats{}
	if _, err := vcloud.Deploy(nil, vcloud.Stationary, vcloud.DeployConfig{}, stats); err == nil {
		t.Error("nil scenario should error")
	}
	if _, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, nil); err == nil {
		t.Error("nil stats should error")
	}
	if _, err := vcloud.Deploy(s, vcloud.Architecture(9), vcloud.DeployConfig{}, stats); err == nil {
		t.Error("bad architecture should error")
	}
	// Infrastructure without RSU.
	net, err := roadnet.Grid(roadnet.GridSpec{Rows: 2, Cols: 2, Spacing: 100})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := scenario.New(scenario.Spec{Seed: 1, Network: net, NumVehicles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vcloud.Deploy(s2, vcloud.Infrastructure, vcloud.DeployConfig{}, stats); err == nil {
		t.Error("infrastructure without RSU should error")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := parkingScenario(t, 3)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 0}, nil); err == nil {
		t.Error("invalid task accepted")
	}
	c := d.Controllers[0]
	c.Stop()
	if _, err := c.Submit(vcloud.Task{Ops: 10}, nil); err == nil {
		t.Error("submit to stopped controller accepted")
	}
}

func TestSensorConstrainedPlacement(t *testing.T) {
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 2, AisleLenM: 100, AisleGapM: 40})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.New(scenario.Spec{
		Seed: 1, Network: net, NumVehicles: 6, Parked: true,
		Profile: func(i int) mobility.Profile {
			p := mobility.DefaultProfile()
			if i == 3 {
				p.Sensors = []string{"lidar"}
			} else {
				p.Sensors = []string{"camera"}
			}
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var lidarOK, radarOK bool
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 100, NeedsSensor: "lidar"}, func(r vcloud.TaskResult) {
		lidarOK = r.OK
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 100, NeedsSensor: "radar"}, func(r vcloud.TaskResult) {
		radarOK = r.OK
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !lidarOK {
		t.Error("lidar task should complete on the lidar vehicle")
	}
	if radarOK {
		t.Error("radar task should fail: nobody has a radar")
	}
}

func TestDynamicCloudFormsAndComputes(t *testing.T) {
	s := highwayScenario(t, 3, 30)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Dynamic, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctls := d.ActiveControllers()
	if len(ctls) == 0 {
		t.Fatal("no dynamic controllers elected")
	}
	withMembers := 0
	for _, c := range ctls {
		if c.NumMembers() > 0 {
			withMembers++
		}
	}
	if withMembers == 0 {
		t.Fatal("no controller has members")
	}
	completed := 0
	for i := 0; i < 10; i++ {
		if err := d.SubmitAnywhere(vcloud.Task{Ops: 300, InputBytes: 500, OutputBytes: 500},
			func(r vcloud.TaskResult) {
				if r.OK {
					completed++
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if completed < 5 {
		t.Errorf("dynamic cloud completed %d/10 (failed=%d)", completed, stats.Failed.Value())
	}
}

func TestEmergencyPropagates(t *testing.T) {
	s := parkingScenario(t, 5)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.SetEmergency(true)
	if !d.Controllers[0].Emergency() {
		t.Error("controller flag not set")
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	inEmergency := 0
	for _, m := range d.Members {
		if m.Emergency() {
			inEmergency++
		}
	}
	if inEmergency < 3 {
		t.Errorf("only %d members saw emergency mode", inEmergency)
	}
}

func TestSnapshot(t *testing.T) {
	s := parkingScenario(t, 4)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	snap := d.Controllers[0].Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for addr, res := range snap {
		if res.CPU <= 0 {
			t.Errorf("member %d has no CPU in snapshot", addr)
		}
	}
	members := d.Controllers[0].Members()
	if len(members) != len(snap) {
		t.Error("Members/Snapshot disagree")
	}
}

func TestRemoteCloudBackend(t *testing.T) {
	k := sim.NewKernel(1)
	up, err := radio.NewUplink(k, radio.UplinkParams{
		BaseRTT: 50 * time.Millisecond, BandwidthMbps: 10, LossProb: 0, JitterFrac: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := &vcloud.Stats{}
	rc, err := vcloud.NewRemoteCloud("conventional", k, up, 1e6, stats)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Name() != "conventional" {
		t.Error("name")
	}
	var res vcloud.TaskResult
	if err := rc.Submit(vcloud.Task{Ops: 1e5, InputBytes: 1000, OutputBytes: 1000}, func(r vcloud.TaskResult) {
		res = r
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("remote task failed: %+v", res)
	}
	// 50ms RTT + 16kb/10Mbps=1.6ms + 0.1s compute ≈ 152ms.
	if res.Latency < 150*time.Millisecond || res.Latency > 200*time.Millisecond {
		t.Errorf("latency = %v, want ~152ms", res.Latency)
	}
	// Outage: submission fails immediately.
	up.SetAvailable(false)
	var res2 vcloud.TaskResult
	if err := rc.Submit(vcloud.Task{Ops: 1e5}, func(r vcloud.TaskResult) { res2 = r }); err != nil {
		t.Fatal(err)
	}
	if res2.OK || res2.Reason != vcloud.ReasonUplinkDown {
		t.Errorf("outage result = %+v", res2)
	}
	if err := rc.Submit(vcloud.Task{Ops: 0}, nil); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestRemoteCloudValidation(t *testing.T) {
	k := sim.NewKernel(1)
	up, _ := radio.NewUplink(k, radio.DefaultUplinkParams())
	stats := &vcloud.Stats{}
	if _, err := vcloud.NewRemoteCloud("", k, up, 1, stats); err == nil {
		t.Error("empty name")
	}
	if _, err := vcloud.NewRemoteCloud("x", nil, up, 1, stats); err == nil {
		t.Error("nil kernel")
	}
	if _, err := vcloud.NewRemoteCloud("x", k, nil, 1, stats); err == nil {
		t.Error("nil uplink")
	}
	if _, err := vcloud.NewRemoteCloud("x", k, up, 0, stats); err == nil {
		t.Error("zero cpu")
	}
	if _, err := vcloud.NewRemoteCloud("x", k, up, 1, nil); err == nil {
		t.Error("nil stats")
	}
}

func TestHandoverBeatsDropUnderChurn(t *testing.T) {
	// E7 in miniature: an RSU mid-highway coordinates moving vehicles.
	// Long tasks outlive each vehicle's transit through RSU range, so
	// without handover work is repeatedly lost.
	run := func(handover bool) (completed uint64, wasted float64) {
		s := highwayScenario(t, 5, 25)
		if _, err := s.AddRSU(geo.Point{X: 1500, Y: 15}); err != nil {
			t.Fatal(err)
		}
		stats := &vcloud.Stats{}
		d, err := vcloud.Deploy(s, vcloud.Infrastructure, vcloud.DeployConfig{
			Handover:  handover,
			DwellMode: mobility.DwellRouteAware,
			Controller: vcloud.ControllerConfig{
				RetryLimit: 5,
			},
		}, stats)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		// Tasks sized ~40 s of compute: no vehicle stays that long in
		// range at 25 m/s (600 m diameter ≈ 24 s transit).
		for i := 0; i < 12; i++ {
			if err := d.SubmitAnywhere(vcloud.Task{Ops: 40_000, InputBytes: 500, OutputBytes: 500}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunFor(4 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return stats.Completed.Value(), stats.WastedOps
	}
	dropDone, dropWaste := run(false)
	hoDone, hoWaste := run(true)
	t.Logf("drop: done=%d waste=%.0f; handover: done=%d waste=%.0f", dropDone, dropWaste, hoDone, hoWaste)
	if hoDone < dropDone {
		t.Errorf("handover completed %d < drop %d", hoDone, dropDone)
	}
	if hoWaste >= dropWaste {
		t.Errorf("handover waste %.0f should be below drop waste %.0f", hoWaste, dropWaste)
	}
}

func TestBatteryBudgetDepletesMembers(t *testing.T) {
	// A parked cloud with tiny battery budgets: members serve a few
	// tasks, deplete, and leave; the controller loses workers and later
	// tasks fail — the Hou et al. [9] battery constraint.
	s := parkingScenario(t, 6)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		BatteryOps: 2000, // budget for exactly 2 tasks of 1000 ops each
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]
	before := gate.NumMembers()
	if before < 4 {
		t.Fatalf("members = %d", before)
	}
	// Enough work to exhaust every battery: 6 members × 2000 ops = 12000
	// total budget; submit 30 × 1000 ops.
	completed := 0
	for i := 0; i < 30; i++ {
		_ = d.SubmitAnywhere(vcloud.Task{Ops: 1000}, func(r vcloud.TaskResult) {
			if r.OK {
				completed++
			}
		})
	}
	if err := s.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	depleted := 0
	var totalSpent float64
	for _, m := range d.Members {
		if m.Depleted() {
			depleted++
		}
		totalSpent += m.SpentOps()
		if m.SpentOps() > 2000 {
			t.Errorf("member exceeded battery budget: %v ops", m.SpentOps())
		}
	}
	if depleted == 0 {
		t.Error("no member depleted despite overload")
	}
	if completed == 0 {
		t.Error("nothing completed before depletion")
	}
	if completed == 30 {
		t.Error("all tasks completed: battery budget had no effect")
	}
	t.Logf("completed=%d/30 depleted=%d/%d totalSpent=%.0f", completed, depleted, len(d.Members), totalSpent)
}

func TestTaskDeadlineMissedFails(t *testing.T) {
	// A deadline that looks feasible at submit (the fast member could
	// make it) but is missed mid-flight: the fast member dies silently,
	// the task reassigns to a slow member, and the late result fails
	// with "deadline missed" — distinct from the submit-time fail-fast.
	s := parkingScenario(t, 2)
	stats := &vcloud.Stats{}
	n := 0
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		// attachMember iterates vehicles in ascending ID order, so the
		// first call configures the lowest-ID member.
		MemberResources: func(p mobility.Profile) vcloud.Resources {
			n++
			cpu := 500.0 // slow
			if n == 1 {
				cpu = 2000.0 // fast
			}
			return vcloud.Resources{CPU: cpu, Storage: p.Storage, Sensors: p.Sensors}
		},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 2000 ops: 1 s on the fast member, 4 s on the slow one. The 2.5 s
	// deadline passes the fail-fast (fast member qualifies) and the
	// scheduler picks the fast member (earliest finish).
	var res vcloud.TaskResult
	task := vcloud.Task{Ops: 2000, Deadline: s.Kernel.Now() + 2500*time.Millisecond}
	if err := d.SubmitAnywhere(task, func(r vcloud.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	// Kill the fast member silently: it expires, the task reassigns to
	// the slow member, whose result lands past the deadline.
	ids := s.VehicleIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	d.Members[ids[0]].Stop()
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Reason != vcloud.ReasonDeadline {
		t.Errorf("result = %+v, want deadline-missed failure", res)
	}
	if stats.Failed.Value() != 1 {
		t.Errorf("failed = %d", stats.Failed.Value())
	}
	if res.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (reassignment happened)", res.Retries)
	}
}

func TestTaskInfeasibleDeadlineFailsFastAtSubmit(t *testing.T) {
	// Regression for the fail-fast bugfix: a deadline no eligible member
	// could possibly meet is rejected at submit with reason "deadline"
	// instead of burning a doomed multi-second timeout. The callback
	// lands on the next kernel tick — still the same virtual instant
	// (latency zero) but never inside Submit itself, so callers can
	// always record the returned TaskID before the outcome routes back.
	s := parkingScenario(t, 2)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 10,000 ops is 10 s on the default 1000 ops/s members; a 1 s
	// deadline cannot be met by anyone.
	var res vcloud.TaskResult
	fired := 0
	submitAt := s.Kernel.Now()
	task := vcloud.Task{Ops: 10_000, Deadline: submitAt + time.Second}
	if err := d.SubmitAnywhere(task, func(r vcloud.TaskResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("done fired %d times inside Submit, want 0 (deferred to the next tick)", fired)
	}
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("done fired %d times, want 1 (rejected at submit time)", fired)
	}
	if res.OK || res.Reason != vcloud.ReasonDeadline {
		t.Errorf("result = %+v, want fail-fast with reason \"deadline\"", res)
	}
	if res.Latency != 0 {
		t.Errorf("latency = %v, want 0 (rejected at submit)", res.Latency)
	}
	if stats.Failed.Value() != 1 || stats.Submitted.Value() != 1 {
		t.Errorf("submitted=%d failed=%d, want 1/1", stats.Submitted.Value(), stats.Failed.Value())
	}
	// An already-passed deadline fails fast even with no members.
	var res2 vcloud.TaskResult
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 100, Deadline: submitAt - time.Second},
		func(r vcloud.TaskResult) { res2 = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if res2.OK || res2.Reason != vcloud.ReasonDeadline {
		t.Errorf("past-deadline result = %+v, want fail-fast", res2)
	}
}

func TestSubmitWithNoMembersRetriesThenFails(t *testing.T) {
	// A controller with no members at all: the task retries and fails.
	s := parkingScenario(t, 1)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Controller: vcloud.ControllerConfig{RetryLimit: 2},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	// Silence the only member so nobody ever joins.
	for _, m := range d.Members {
		m.Stop()
	}
	var res vcloud.TaskResult
	if _, err := d.Controllers[0].Submit(vcloud.Task{Ops: 100}, func(r vcloud.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.Kernel.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Reason != vcloud.ReasonNoEligibleMember {
		t.Errorf("result = %+v, want no-members failure", res)
	}
	if stats.Retries.Value() != 2 {
		t.Errorf("retries = %d, want 2", stats.Retries.Value())
	}
}

func TestMemberLeaveRemovesMembership(t *testing.T) {
	s := parkingScenario(t, 4)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]
	before := gate.NumMembers()
	if before == 0 {
		t.Fatal("no members")
	}
	// One member leaves gracefully; stop its agent first so it cannot
	// rejoin on the next advertisement.
	var left *vcloud.Member
	for _, m := range d.Members {
		left = m
		break
	}
	left.Leave()
	left.Stop()
	if err := s.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if gate.NumMembers() >= before {
		t.Errorf("members = %d, want < %d after leave", gate.NumMembers(), before)
	}
}
