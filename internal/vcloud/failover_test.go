package vcloud_test

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// TestCheckpointContents checks the replicated state: membership and the
// in-flight task table travel.
func TestCheckpointContents(t *testing.T) {
	s := parkingScenario(t, 5)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Failover:  true,
		DwellMode: mobility.DwellRouteAware,
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
	if _, err := gate.Submit(vcloud.Task{Ops: 50_000}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	ck := gate.Checkpoint()
	if ck.Controller != gate.Addr() {
		t.Errorf("checkpoint controller = %d, want %d", ck.Controller, gate.Addr())
	}
	if len(ck.Members) != gate.NumMembers() {
		t.Errorf("checkpoint members = %d, want %d", len(ck.Members), gate.NumMembers())
	}
	for i := 1; i < len(ck.Members); i++ {
		if ck.Members[i-1].Addr >= ck.Members[i].Addr {
			t.Fatal("checkpoint members not sorted by address")
		}
	}
	if len(ck.Tasks) != 1 {
		t.Fatalf("checkpoint tasks = %d, want 1", len(ck.Tasks))
	}
	tk := ck.Tasks[0]
	if tk.RemainingOps <= 0 || tk.RemainingOps > 50_000 {
		t.Errorf("checkpointed RemainingOps = %v", tk.RemainingOps)
	}
}

// TestCheckpointIsData walks Checkpoint's type graph: no field anywhere
// in it may be a func, chan, map or interface, so no hook, closure or
// local handle can ride a replicated checkpoint or a merge.
func TestCheckpointIsData(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Func, reflect.Chan, reflect.Map, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s (%v): a checkpoint must be plain data", path, ty.Kind(), ty)
		case reflect.Pointer:
			walk(path, ty.Elem())
		case reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Checkpoint", reflect.TypeOf(vcloud.Checkpoint{}))
	if len(seen) < 10 {
		t.Errorf("walk reached only %d types; it is not following the fields", len(seen))
	}
}

// TestFailoverPromotesStandby is the tentpole end-to-end: the controller
// replicates checkpoints to a standby member; when the controller
// crashes, the standby promotes itself, members reattach, and in-flight
// tasks resume from their checkpointed RemainingOps.
func TestFailoverPromotesStandby(t *testing.T) {
	s := parkingScenario(t, 8)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{Failover: true}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]
	standbys := 0
	for _, m := range d.Members {
		if m.Standby() {
			standbys++
		}
	}
	if standbys != 1 {
		t.Fatalf("standbys holding a checkpoint = %d, want exactly 1", standbys)
	}

	// Long tasks that will be in flight at crash time (5 s compute each at
	// the default 1000 ops/s CPU).
	for i := 0; i < 4; i++ {
		if _, err := gate.Submit(vcloud.Task{Ops: 5000, InputBytes: 1000, OutputBytes: 500}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	completedAtCrash := stats.Completed.Value()
	gate.Crash()
	if !gate.Stopped() {
		t.Fatal("Crash did not stop the controller")
	}
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if got := stats.Failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if stats.Resumed.Value() == 0 {
		t.Error("no checkpointed tasks resumed")
	}
	if stats.Completed.Value() <= completedAtCrash {
		t.Errorf("nothing completed after the crash (at-crash=%d, now=%d)",
			completedAtCrash, stats.Completed.Value())
	}
	live := d.ActiveControllers()
	if len(live) != 1 {
		t.Fatalf("active controllers = %d, want 1 (the successor)", len(live))
	}
	succ := live[0]
	if succ.Addr() == gate.Addr() {
		t.Error("successor reuses the crashed controller's node")
	}
	if _, still := d.Members[mobility.VehicleID(succ.Addr())]; still {
		t.Error("promoted vehicle still tracked as a member")
	}
	// Members reattached: the successor should have most of the survivors
	// (population minus the promoted vehicle).
	if succ.NumMembers() < 5 {
		t.Errorf("successor members = %d, want most of 7", succ.NumMembers())
	}
	// And the successor actually works: a fresh submission completes.
	before := stats.Completed.Value()
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 500}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if stats.Completed.Value() <= before {
		t.Error("successor controller completed no new work")
	}
}

// TestCrashVersusStop pins the two halting semantics apart: Stop fails
// pending tasks through their callbacks; Crash is silent process death.
func TestCrashVersusStop(t *testing.T) {
	for _, graceful := range []bool{true, false} {
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
		calls := 0
		var last vcloud.TaskResult
		if _, err := gate.Submit(vcloud.Task{Ops: 60_000}, func(r vcloud.TaskResult) {
			calls++
			last = r
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		if graceful {
			gate.Stop()
			if calls != 1 {
				t.Fatalf("Stop fired done %d times, want exactly 1", calls)
			}
			if last.OK || last.Reason != vcloud.ReasonControllerStopped {
				t.Errorf("Stop result = %+v, want controller-stopped failure", last)
			}
			if stats.Failed.Value() != 1 {
				t.Errorf("Stop failed counter = %d, want 1", stats.Failed.Value())
			}
		} else {
			gate.Crash()
			if err := s.RunFor(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			if calls != 0 {
				t.Errorf("Crash fired done %d times, want 0 (silent death)", calls)
			}
			if stats.Failed.Value() != 0 {
				t.Errorf("Crash failed counter = %d, want 0", stats.Failed.Value())
			}
		}
		if gate.PendingTasks() != 0 && graceful {
			t.Errorf("tasks still pending after Stop: %d", gate.PendingTasks())
		}
	}
}

// TestStopWithInflightHandovers drives the churny highway workload whose
// tasks are mid-handover, stops the controller cold, and checks every
// submission's callback fired exactly once.
func TestStopWithInflightHandovers(t *testing.T) {
	s := highwayScenario(t, 5, 25)
	if _, err := s.AddRSU(geo.Point{X: 1500, Y: 15}); err != nil {
		t.Fatal(err)
	}
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Infrastructure, vcloud.DeployConfig{
		Handover:  true,
		DwellMode: mobility.DwellRouteAware,
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
	const n = 10
	calls := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		if err := d.SubmitAnywhere(vcloud.Task{Ops: 40_000, InputBytes: 500, OutputBytes: 500},
			func(r vcloud.TaskResult) { calls[i]++ }); err != nil {
			t.Fatal(err)
		}
	}
	// Long tasks on transient members: by 30 s some work has handed over
	// (and some may have completed); the rest is in flight.
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.Controllers[0].Stop()
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		if c != 1 {
			t.Errorf("task %d: done fired %d times, want exactly 1", i, c)
		}
	}
	if got := stats.Completed.Value() + stats.Failed.Value(); got != n {
		t.Errorf("completed+failed = %d, want %d", got, n)
	}
	if stats.Handovers.Value() == 0 {
		t.Error("workload produced no handovers; test lost its in-flight-handover coverage")
	}
}

// TestExpiredMemberReassignsImmediately is the regression test for the
// member-expiry bugfix: when a member goes silent past MemberTTL, its
// outstanding tasks must be reassigned at expiry time, not parked until
// the generous per-task timeout fires.
func TestExpiredMemberReassignsImmediately(t *testing.T) {
	s := parkingScenario(t, 3)
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
	// 4 s of compute: the per-task timeout lands at (4+2)*3+2 = 20 s.
	var res vcloud.TaskResult
	var doneAt sim.Time
	submitted := s.Kernel.Now()
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 4000}, func(r vcloud.TaskResult) {
		res = r
		doneAt = s.Kernel.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The assignee vanishes silently (no Leave): it expires from the
	// member table after MemberTTL (3 s).
	stopRunning(t, d)
	if err := s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("task did not complete after reassignment: %+v", res)
	}
	elapsed := (doneAt - submitted).Seconds()
	// Immediate reassignment: ~3 s TTL + ~4 s compute ≈ 8 s. Waiting for
	// the per-task timeout would take 20 s + 4 s ≈ 24 s.
	if elapsed > 14 {
		t.Errorf("recovery took %.1f s; expiry should reassign immediately, not wait out the task timeout", elapsed)
	}
	if res.Retries < 1 {
		t.Error("completion without a retry: the reassignment path was not exercised")
	}
	if stats.WastedOps == 0 {
		t.Error("vanished member's partial work not counted as waste")
	}
}

// stopRunning stops the member currently executing a task (fails the test
// when none is).
func stopRunning(t *testing.T, d *vcloud.Deployment) {
	t.Helper()
	for _, m := range d.Members {
		if m.Running() > 0 {
			m.Stop()
			return
		}
	}
	t.Fatal("no member is executing a task")
}

// TestTaskTimeoutReassigns covers the per-task timeout path that remains
// after the expiry bugfix: the assignee stays a fresh member — it keeps
// hearing advertisements and re-joining — but never answers its
// dispatch, so only the attempt timeout can recover the work.
func TestTaskTimeoutReassigns(t *testing.T) {
	s := parkingScenario(t, 3)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
	if err != nil {
		t.Fatal(err)
	}
	gate := d.Controllers[0]
	// The first member dispatched to swallows every task it is sent; the
	// others run theirs. At the retry's arrival the stalled member must
	// still be in the controller's table: recovery came from the
	// timeout, not from member expiry.
	stalled := vnet.Addr(-1)
	retried, stalledKept := false, false
	for id, m := range d.Members {
		node, _ := d.MemberNode(id)
		addr, m := node.Addr(), m
		node.Handle("vc.task", func(msg vnet.Message, from vnet.Addr) {
			if stalled < 0 {
				stalled = addr
			}
			if addr == stalled {
				return
			}
			if !retried {
				retried = true
				stalledKept = slices.Contains(gate.Members(), stalled)
			}
			m.HandleTask(msg, from)
		})
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var res vcloud.TaskResult
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 2000}, func(r vcloud.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("task did not recover through the timeout path: %+v", res)
	}
	if res.Retries < 1 || !retried {
		t.Error("no retry recorded: timeout path not exercised")
	}
	if !stalledKept {
		t.Errorf("stalled member %d had left the member table when the retry dispatched: expiry, not the timeout, recovered the work", stalled)
	}
	if stats.WastedOps == 0 {
		t.Error("timed-out attempt's work not counted as waste")
	}
}

// TestTaskTimeoutExhaustsRetries pins the failure end of the timeout
// path: when every member silently swallows its dispatch, the task times
// out until its policy's MaxRetries rounds are spent and fails.
func TestTaskTimeoutExhaustsRetries(t *testing.T) {
	s := parkingScenario(t, 3)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Controller: vcloud.ControllerConfig{Depend: &vcloud.DependabilityPolicy{MaxRetries: 2}},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.VehicleIDs() {
		node, _ := s.Node(id)
		node.Handle("vc.task", func(vnet.Message, vnet.Addr) {})
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var res vcloud.TaskResult
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 1000}, func(r vcloud.TaskResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Reason != vcloud.ReasonRetriesExhausted {
		t.Errorf("result = %+v, want retries-exhausted failure", res)
	}
	if got := stats.Retries.Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if stats.Failed.Value() != 1 {
		t.Errorf("failed = %d, want 1", stats.Failed.Value())
	}
}
