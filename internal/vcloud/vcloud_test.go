package vcloud_test

import (
	"math"
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
	return parkingFleet(t, vehicles, nil)
}

// parkingFleet is parkingScenario with vehicle i, the i-th lowest
// address, lending cpu(i) ops/s to the cloud; nil keeps the default.
func parkingFleet(t testing.TB, vehicles int, cpu func(i int) float64) *scenario.Scenario {
	t.Helper()
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 3, AisleLenM: 150, AisleGapM: 40})
	if err != nil {
		t.Fatal(err)
	}
	spec := scenario.Spec{Seed: 1, Network: net, NumVehicles: vehicles, Parked: true}
	if cpu != nil {
		spec.Profile = func(i int) mobility.Profile {
			p := mobility.DefaultProfile()
			p.CPU = cpu(i)
			return p
		}
	}
	s, err := scenario.New(spec)
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
		{Ops: math.NaN()},
		{Ops: math.Inf(1)},
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
	if stats.Latency.Count() == 0 || stats.Latency.Percentile(50) <= 0 {
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
	for addr, cpu := range snap {
		if cpu <= 0 {
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
	rc, err := vcloud.NewRemoteCloud("conventional", k, up.NewSender(radio.BWEConfig{}), 1e6, stats)
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
	tx := up.NewSender(radio.BWEConfig{})
	stats := &vcloud.Stats{}
	if _, err := vcloud.NewRemoteCloud("", k, tx, 1, stats); err == nil {
		t.Error("empty name")
	}
	if _, err := vcloud.NewRemoteCloud("x", nil, tx, 1, stats); err == nil {
		t.Error("nil kernel")
	}
	if _, err := vcloud.NewRemoteCloud("x", k, nil, 1, stats); err == nil {
		t.Error("nil sender")
	}
	if _, err := vcloud.NewRemoteCloud("x", k, tx, 0, stats); err == nil {
		t.Error("zero cpu")
	}
	if _, err := vcloud.NewRemoteCloud("x", k, tx, 1, nil); err == nil {
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
				Depend: &vcloud.DependabilityPolicy{MaxRetries: 5},
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

func TestTaskDeadlineMissedFails(t *testing.T) {
	// A deadline that looks feasible at submit (the fast member could
	// make it) but is missed mid-flight: the fast member dies silently,
	// and by the time it expires the deadline has passed, so the task
	// fails with "deadline missed" instead of a doomed reassignment to
	// the slow member — distinct from the submit-time fail-fast.
	s := parkingFleet(t, 2, func(i int) float64 {
		if i == 0 {
			return 2000 // fast: the lowest-ID member
		}
		return 500 // slow
	})
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
	// 2000 ops: 1 s on the fast member, 4 s on the slow one. The 2.5 s
	// deadline passes the fail-fast (fast member qualifies) and the
	// scheduler picks the fast member (earliest finish).
	var res vcloud.TaskResult
	task := vcloud.Task{Ops: 2000, Deadline: s.Kernel.Now() + 2500*time.Millisecond}
	if err := d.SubmitAnywhere(task, func(r vcloud.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	// Kill the fast member silently: it expires after the deadline.
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
	if res.Retries != 0 {
		t.Errorf("retries = %d, want 0 (no reassignment past the deadline)", res.Retries)
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
		Controller: vcloud.ControllerConfig{Depend: &vcloud.DependabilityPolicy{MaxRetries: 2}},
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
