package vcloud_test

import (
	"testing"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/radio"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// TestEpochAlgebra pins the fencing-token semantics: monotone
// collision-free allocation, counter-ordered supersession, and the
// deterministic abdication rule.
func TestEpochAlgebra(t *testing.T) {
	var zero vcloud.Epoch
	if !zero.Zero() {
		t.Error("zero-value epoch must be the legacy unfenced token")
	}
	e1 := vcloud.NextEpoch(0, 5)
	if e1.Zero() || e1.Round() != 1 || e1.Claimant != 5 {
		t.Errorf("NextEpoch(0, 5) = %v, want round 1 claimed by 5", e1)
	}
	if !e1.Supersedes(zero) || zero.Supersedes(e1) {
		t.Error("any claimed epoch supersedes zero, never the reverse")
	}
	// Two controllers bumping concurrently from the same base — a merge
	// racing a stale-checkpoint promotion — must mint distinct, totally
	// ordered counters.
	a := vcloud.NextEpoch(e1.Counter, 3)
	b := vcloud.NextEpoch(e1.Counter, 9)
	if a.Counter == b.Counter {
		t.Fatalf("concurrent bumps collided: %v vs %v", a, b)
	}
	if a.Round() != 2 || b.Round() != 2 {
		t.Errorf("both bumps should land in round 2: %v, %v", a, b)
	}
	if a.Supersedes(b) == b.Supersedes(a) {
		t.Error("distinct counters must be totally ordered")
	}
	// Each bump strictly supersedes its base.
	if !a.Supersedes(e1) || !b.Supersedes(e1) {
		t.Error("a bump must supersede the epoch it bumped from")
	}
	// Abdication: defer to a higher counter, never to zero or yourself.
	lo, hi := a, b
	if b.Supersedes(a) {
		lo, hi = a, b
	} else {
		lo, hi = b, a
	}
	if !lo.Defers(hi) || hi.Defers(lo) {
		t.Error("lower epoch defers to higher, not the reverse")
	}
	if lo.Defers(zero) || lo.Defers(lo) {
		t.Error("an epoch never defers to zero or to itself")
	}
}

// isolateController cuts the controller plus up to keepN of its workers
// (never its standby) off from the rest of the cloud; the returned func
// heals the cut.
func isolateController(t *testing.T, inj *faults.Injector, c *vcloud.Controller, keepN int) func() {
	t.Helper()
	keep := make([]radio.NodeID, 0, keepN)
	for _, m := range c.Members() {
		if m != c.StandbyAddr() && len(keep) < keepN {
			keep = append(keep, radio.NodeID(m))
		}
	}
	if len(keep) < keepN {
		t.Fatalf("only %d members available to keep, want %d", len(keep), keepN)
	}
	return inj.StartIsolation(radio.NodeID(c.Addr()), keep)
}

// TestSplitBrainAbdicationAndMerge is the tentpole end-to-end: isolating
// a fenced controller promotes its standby into a rival epoch; on heal
// the old controller defers, ships its state, and the survivor merges —
// with every outcome applied exactly once and the cloud converging back
// to a single controller that still takes work.
func TestSplitBrainAbdicationAndMerge(t *testing.T) {
	s := parkingScenario(t, 8)
	applies := map[vcloud.TaskID]int{}
	duplicates := 0
	maxRound := uint64(0)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Failover: true,
		Fencing:  true,
		OnApply: func(id vcloud.TaskID, epoch uint64, ok bool) {
			applies[id]++
			if applies[id] > 1 {
				duplicates++
			}
		},
		OnAccept: func(ctl vnet.Addr, e vcloud.Epoch) {
			if e.Round() > maxRound {
				maxRound = e.Round()
			}
		},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(s)
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
	if !gate.Fenced() || gate.CurrentEpoch().Round() != 1 {
		t.Fatalf("gate epoch = %v, want fenced round 1", gate.CurrentEpoch())
	}
	if gate.StandbyAddr() < 0 {
		t.Fatal("no standby designated before the split")
	}

	// Long tasks in flight when the cut lands (5 s compute each).
	for i := 0; i < 4; i++ {
		if _, err := gate.Submit(vcloud.Task{Ops: 5000, InputBytes: 1000, OutputBytes: 500}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	heal := isolateController(t, inj, gate, 2)
	if err := s.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Mid-split: the standby promoted into a superseding epoch, both
	// controllers are live, and the isolated gate — cut off from the
	// standby it armed — refuses new work instead of applying outcomes
	// nobody acknowledged.
	if got := stats.Failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	live := d.ActiveControllers()
	if len(live) != 2 {
		t.Fatalf("active controllers mid-split = %d, want 2", len(live))
	}
	var succ *vcloud.Controller
	for _, c := range live {
		if c.Addr() != gate.Addr() {
			succ = c
		}
	}
	if succ == nil {
		t.Fatal("successor not among active controllers")
	}
	if !succ.CurrentEpoch().Supersedes(gate.CurrentEpoch()) {
		t.Errorf("successor epoch %v does not supersede gate %v", succ.CurrentEpoch(), gate.CurrentEpoch())
	}
	if _, err := gate.Submit(vcloud.Task{Ops: 500}, nil); err == nil {
		t.Error("isolated gate accepted new work on an expired lease")
	}

	heal()
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Healed: the gate heard the superseding epoch, abdicated, and the
	// survivor merged its members, tasks and outcome ledger.
	if got := stats.Abdications.Value(); got != 1 {
		t.Errorf("abdications = %d, want 1", got)
	}
	if got := stats.Merges.Value(); got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
	if !gate.Stopped() {
		t.Error("abdicated gate still running")
	}
	live = d.ActiveControllers()
	if len(live) != 1 || live[0].Addr() != succ.Addr() {
		t.Fatalf("post-merge controllers = %d, want only the survivor", len(live))
	}
	// The merge bumped past both generations and re-advertised, so
	// members re-accepted under a round above the promotion's.
	if maxRound < 3 {
		t.Errorf("highest accepted round = %d, want >= 3 after the merge bump", maxRound)
	}
	if duplicates != 0 {
		t.Fatalf("%d outcomes applied twice across the split", duplicates)
	}
	// The survivor keeps working after reconciliation.
	before := stats.Completed.Value()
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 500}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if stats.Completed.Value() <= before {
		t.Error("merged survivor completed no new work")
	}
}

// TestStandbyLostSurfaced is the regression test for the refreshStandby
// silent no-op: a single-worker cloud that loses its only eligible
// member must surface the standby-less transition through
// Stats.StandbyLost instead of quietly keeping a dead standby.
func TestStandbyLostSurfaced(t *testing.T) {
	s := parkingScenario(t, 1)
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
	if gate.StandbyAddr() < 0 {
		t.Fatal("single eligible member not designated standby")
	}
	if got := stats.StandbyLost.Value(); got != 0 {
		t.Fatalf("StandbyLost = %d before any loss", got)
	}
	for _, m := range d.Members {
		m.Stop()
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := stats.StandbyLost.Value(); got != 1 {
		t.Errorf("StandbyLost = %d, want exactly 1 transition", got)
	}
	if gate.StandbyAddr() >= 0 {
		t.Error("gate still designates a dead standby")
	}
}

// TestRestoreReplacesTasksBehindPartition covers the successor's view of
// a half-healed world: the controller crashes while the workers running
// its tasks sit behind a still-open partition. The promoted standby must
// re-place that work on reachable members — via dispatch timeout and
// retry — rather than hang waiting for results that can never arrive.
func TestRestoreReplacesTasksBehindPartition(t *testing.T) {
	s := parkingScenario(t, 8)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Failover: true,
		Fencing:  true,
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(s)
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
	for i := 0; i < 2; i++ {
		if _, err := gate.Submit(vcloud.Task{Ops: 8000}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let a checkpoint round replicate the in-flight table (period
	// 2×AdvPeriod) before the crash; the 8 s tasks are still running.
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Cut every worker currently running a task — except the standby,
	// which must stay reachable to promote — off from the cloud; the
	// partition stays open for the whole test.
	var behind []radio.NodeID
	for _, m := range d.Members {
		if m.Running() > 0 && m.Addr() != gate.StandbyAddr() {
			behind = append(behind, radio.NodeID(m.Addr()))
		}
	}
	if len(behind) == 0 {
		t.Skip("only the standby was running tasks in this seeding")
	}
	_ = inj.StartIsolation(behind[0], behind[1:])
	gate.Crash()
	if err := s.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}

	if got := stats.Failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if stats.Resumed.Value() == 0 {
		t.Fatal("successor resumed no checkpointed tasks")
	}
	// The partitioned assignees never answered, so completion proves the
	// successor timed the dispatches out and re-placed them.
	if stats.Completed.Value() < 2 {
		t.Errorf("completed = %d, want both orphaned tasks re-placed and finished (retries=%d)",
			stats.Completed.Value(), stats.Retries.Value())
	}
	live := d.ActiveControllers()
	if len(live) != 1 {
		t.Fatalf("active controllers = %d, want 1", len(live))
	}
	if live[0].PendingTasks() != 0 {
		t.Errorf("%d tasks still pending: successor hung on partitioned workers", live[0].PendingTasks())
	}
}
