package vcloud_test

import (
	"sort"
	"testing"
	"time"

	"vcloud/internal/mobility"
	"vcloud/internal/trust"
	"vcloud/internal/vcloud"
)

// sortedMembers returns the deployment's members lowest vehicle ID
// first, the order the deployment started them in.
func sortedMembers(d *vcloud.Deployment) []*vcloud.Member {
	ids := make([]mobility.VehicleID, 0, len(d.Members))
	for id := range d.Members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*vcloud.Member, 0, len(ids))
	for _, id := range ids {
		out = append(out, d.Members[id])
	}
	return out
}

func TestVotingOutvotesByzantineWorker(t *testing.T) {
	// K=3 replicas on exactly 3 members, one of which lies on every
	// result: the two honest copies form a quorum, the lie loses the
	// vote, and the trust engine records the outcome (Fig. 3 loop).
	// The liar (lowest-ID member) is the fastest worker, so its wrong
	// vote arrives before the honest quorum forms — were it slower,
	// early accept would settle the vote without it and there would be
	// no lie on record to judge.
	s := parkingFleet(t, 3, func(i int) float64 {
		if i == 0 {
			return 2000
		}
		return 1000
	})
	ws, err := trust.NewWorkerSet(s.Kernel.Now, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Controller: vcloud.ControllerConfig{
			Depend:  &vcloud.DependabilityPolicy{Replicas: 3},
			Workers: ws,
		},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	members := sortedMembers(d)
	liar := members[0]
	liar.SetResultTamper(func(_ vcloud.Task, v uint64) uint64 { return v + 1 })

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var res vcloud.TaskResult
	fired := 0
	task := vcloud.Task{Ops: 1000, InputBytes: 500, OutputBytes: 200}
	if err := d.SubmitAnywhere(task, func(r vcloud.TaskResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}

	if fired != 1 || !res.OK {
		t.Fatalf("result = %+v fired=%d, want one OK completion", res, fired)
	}
	ref := task
	ref.ID = res.ID
	if res.Value != vcloud.TaskValue(ref) {
		t.Errorf("value = %d, want honest %d", res.Value, vcloud.TaskValue(ref))
	}
	if res.Replicas != 3 || len(res.Voters) != 3 || res.Retries != 0 {
		t.Errorf("replicas=%d voters=%d retries=%d, want 3/3/0", res.Replicas, len(res.Voters), res.Retries)
	}
	if stats.WrongVotes.Value() != 1 {
		t.Errorf("wrong votes = %d, want 1", stats.WrongVotes.Value())
	}
	if got := ws.Score(liar.Addr()); got >= 0.5 {
		t.Errorf("liar trust = %.2f, want below the 0.5 prior", got)
	}
	for _, m := range members[1:] {
		if got := ws.Score(m.Addr()); got <= 0.5 {
			t.Errorf("honest worker %d trust = %.2f, want above the 0.5 prior", m.Addr(), got)
		}
	}
}

func TestAllByzantineFailsSafeWithNoQuorum(t *testing.T) {
	// Every worker lies with a distinct value (the non-colluding model):
	// no two votes ever agree, so the task must FAIL with "no quorum"
	// after exhausting its retry budget — never complete with a wrong
	// value. Retry rounds reuse the same three workers (small-pool
	// fallback), whose deterministic lies repeat; the one-opinion-per-
	// worker tally keeps those repeats from faking a quorum.
	s := parkingScenario(t, 3)
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Controller: vcloud.ControllerConfig{
			Depend: &vcloud.DependabilityPolicy{Replicas: 3, MaxRetries: 2},
		},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sortedMembers(d) {
		addr := m.Addr()
		m.SetResultTamper(func(_ vcloud.Task, v uint64) uint64 { return v + 1 + uint64(addr) })
	}

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var res vcloud.TaskResult
	fired := 0
	if err := d.SubmitAnywhere(vcloud.Task{Ops: 1000}, func(r vcloud.TaskResult) { res = r; fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}

	if fired != 1 {
		t.Fatalf("done fired %d times, want 1", fired)
	}
	if res.OK {
		t.Fatalf("result = %+v: a unanimous-liar cloud completed a task", res)
	}
	if res.Reason != vcloud.ReasonNoQuorum {
		t.Errorf("reason = %q, want %q", res.Reason, vcloud.ReasonNoQuorum)
	}
	if stats.NoQuorum.Value() == 0 {
		t.Error("no-quorum counter never incremented")
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want the full budget of 2", res.Retries)
	}
}

func TestTrustGatedPlacementExcludesDistrusted(t *testing.T) {
	// A worker below the trust threshold must never be picked, even when
	// it is otherwise the scheduler's first choice.
	s := parkingScenario(t, 2)
	ws, err := trust.NewWorkerSet(s.Kernel.Now, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats := &vcloud.Stats{}
	d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
		Controller: vcloud.ControllerConfig{
			Depend:  &vcloud.DependabilityPolicy{Replicas: 1, TrustThreshold: 0.4},
			Workers: ws,
		},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	members := sortedMembers(d)
	distrusted := members[0].Addr()
	ws.Bad(distrusted, 3) // score (0+1)/(3+2) = 0.2 < 0.4

	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var res vcloud.TaskResult
		if err := d.SubmitAnywhere(vcloud.Task{Ops: 500}, func(r vcloud.TaskResult) { res = r }); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("task %d failed: %+v", i, res)
		}
		if len(res.Voters) != 1 || res.Voters[0] == distrusted {
			t.Fatalf("task %d voters = %v, distrusted worker %d must be excluded", i, res.Voters, distrusted)
		}
	}
}

func TestRetryAfterWorkerDeathIsDeterministic(t *testing.T) {
	// A worker dies mid-attempt; the retry round's backoff is drawn from
	// the controller's seeded stream, so two identical runs agree on the
	// final latency bit-for-bit.
	runOnce := func() vcloud.TaskResult {
		// First (lowest-ID) member is fast and wins placement.
		s := parkingFleet(t, 2, func(i int) float64 {
			if i == 0 {
				return 2000
			}
			return 500
		})
		stats := &vcloud.Stats{}
		d, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{
			Controller: vcloud.ControllerConfig{
				Depend: &vcloud.DependabilityPolicy{Replicas: 1, MaxRetries: 3},
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
		var res vcloud.TaskResult
		if err := d.SubmitAnywhere(vcloud.Task{Ops: 2000}, func(r vcloud.TaskResult) { res = r }); err != nil {
			t.Fatal(err)
		}
		sortedMembers(d)[0].Stop() // silent death of the fast assignee
		if err := s.RunFor(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return res
	}

	a := runOnce()
	b := runOnce()
	if !a.OK || !b.OK {
		t.Fatalf("runs failed: %+v / %+v", a, b)
	}
	if a.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (the assignee died)", a.Retries)
	}
	if a.Latency != b.Latency || a.Retries != b.Retries || a.Value != b.Value {
		t.Errorf("same seed diverged: latency %v vs %v, retries %d vs %d, value %d vs %d",
			a.Latency, b.Latency, a.Retries, b.Retries, a.Value, b.Value)
	}
}
