package vcloud

import (
	"slices"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// bareController starts a controller on a node the radio never places,
// so nothing it sends arrives anywhere: members are rows written into its
// table, and results, handovers and merges are handed to its handlers
// directly.
func bareController(t *testing.T, cfg ControllerConfig, members ...vnet.Addr) (*Controller, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(1)
	m, err := radio.NewMedium(k, geo.Rect{Max: geo.Point{X: 1000, Y: 1000}}, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	node, err := vnet.NewNode(k, m, 100, vnet.Config{}, func() (geo.Point, float64, float64) { return geo.Point{}, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(node, cfg, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range members {
		addMember(c, a)
	}
	return c, k
}

// addMember writes a fresh 1000 ops/s member into c's table.
func addMember(c *Controller, a vnet.Addr) {
	m, _ := c.members.add(a)
	m.cpu, m.lastSeen = 1000, c.node.Kernel().Now()
}

func submit(t *testing.T, c *Controller, task Task) *taskState {
	t.Helper()
	id, err := c.Submit(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.tasks[id]
}

// TestMergeRetirementReleasesReplicaQueues: a rival's parked outcome
// retires the live copy of its task, and that must take exactly the
// retired replicas' work off their members' queues — not off member 0,
// which runs another task.
func TestMergeRetirementReleasesReplicaQueues(t *testing.T) {
	c, _ := bareController(t, ControllerConfig{Fencing: true}, 0, 1, 2, 3, 4)
	// Member 0 takes the single copy; its queue then steers the three
	// replicas of the second task to members 1, 2 and 3.
	single := submit(t, c, Task{Ops: 1000, Depend: &DependabilityPolicy{}})
	voted := submit(t, c, Task{Ops: 1000, Depend: &DependabilityPolicy{Replicas: 3}})
	for i, r := range append([]*replicaSlot{single.replicas[0]}, voted.replicas...) {
		if r.assignee != vnet.Addr(i) {
			t.Fatalf("copy %d placed on member %d, want %d", i, r.assignee, i)
		}
	}
	c.onMerge(vnet.Message{Origin: 50, Payload: ckptMsg{Data: EncodeCheckpoint(Checkpoint{
		Epoch:  NextEpoch(0, 50),
		Parked: []ParkedOutcome{{Task: voted.task, OK: true, Value: 7, Voters: []vnet.Addr{5, 6}}},
	})}}, 50)
	if _, live := c.tasks[voted.task.ID]; live {
		t.Fatal("merged outcome did not retire the live copy")
	}
	want := map[vnet.Addr]float64{0: 1000, 1: 0, 2: 0, 3: 0, 4: 0}
	for a, q := range want {
		if got := c.members.get(a).queuedOps; got != q {
			t.Errorf("member %d queuedOps = %v, want %v", a, got, q)
		}
	}
	if c.stats.Completed.Value() != 1 {
		t.Errorf("completed = %d, want the merged outcome applied once", c.stats.Completed.Value())
	}
}

// TestHandoverWithNoTakerKeepsTheRemainder: a copy handed over while no
// other member is eligible loses none of its finished work. The remainder
// is not counted as waste, and the next round dispatches exactly the
// remainder, for a single copy and for three.
func TestHandoverWithNoTakerKeepsTheRemainder(t *testing.T) {
	const ops, left = 10_000.0, 4_000.0
	for _, k := range []int{1, 3} {
		holders := []vnet.Addr{1, 2, 3}[:k]
		c, kernel := bareController(t, ControllerConfig{Depend: &DependabilityPolicy{Replicas: k}}, holders...)
		ts := submit(t, c, Task{Ops: ops})
		if len(ts.replicas) != k {
			t.Fatalf("K=%d: %d copies dispatched", k, len(ts.replicas))
		}
		first := ts.replicas[0]
		c.onHandover(vnet.Message{Origin: first.assignee, Payload: handoverMsg{
			ID: ts.task.ID, RemainingOps: left, Attempt: first.attempt, Replica: 0,
		}}, first.assignee)
		if c.stats.WastedOps != 0 {
			t.Errorf("K=%d: handover with no taker wasted %v ops", k, c.stats.WastedOps)
		}
		// The other copies answer with disagreeing values, so no quorum
		// forms and a retry round follows.
		for i := 1; i < k; i++ {
			r := ts.replicas[i]
			c.onResult(vnet.Message{Origin: r.assignee, Payload: resultMsg{
				ID: ts.task.ID, Attempt: r.attempt, Replica: i, Value: uint64(i),
			}}, r.assignee)
		}
		if !ts.roundPending {
			t.Fatalf("K=%d: no retry round pending after the handover", k)
		}
		// The departing holder leaves and fresh members arrive in time
		// for the round.
		i, _ := c.members.search(first.assignee)
		c.members = slices.Delete(c.members, i, i+1)
		for a := vnet.Addr(10); a < vnet.Addr(10+k); a++ {
			addMember(c, a)
		}
		if err := kernel.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		fresh := ts.replicas[k:]
		if len(fresh) != k {
			t.Fatalf("K=%d: round dispatched %d copies, want %d", k, len(fresh), k)
		}
		for _, r := range fresh {
			if r.remaining != left {
				t.Errorf("K=%d: round dispatched %v ops to member %d, want the %v remainder", k, r.remaining, r.assignee, left)
			}
		}
		if want := float64(k)*ops + float64(k)*left; c.stats.OpsDispatched != want {
			t.Errorf("K=%d: ops dispatched = %v, want %v", k, c.stats.OpsDispatched, want)
		}
		if c.stats.WastedOps != 0 {
			t.Errorf("K=%d: wasted %v ops, want 0", k, c.stats.WastedOps)
		}
	}
}
