package vcloud_test

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// votedTaskRig builds a chain of static nodes, the controller and
// exactly three members, all in radio range, no mobility, and returns a
// function that runs one K=3 task through the controller's whole path —
// place three replicas, dispatch, collect results, vote, apply. It steps
// the kernel until the task's callback fires (the vote accepts early at
// two matching results; the third lands in the next call), so the cost
// is the path's own events plus whatever advertisements and member
// checks fall inside the task's virtual span. No trace recorder is set.
func votedTaskRig(tb testing.TB) (runTask func()) {
	tb.Helper()
	k := sim.NewKernel(1)
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 400, Y: 100}), radio.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	stats := &vcloud.Stats{}
	var ctl *vcloud.Controller
	for i := 0; i < 4; i++ {
		addr, pos := vnet.Addr(i), geo.Point{X: float64(i) * 40}
		m.UpdatePosition(addr, pos)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{}, func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			ctl, err = vcloud.NewController(node, vcloud.ControllerConfig{
				Depend: &vcloud.DependabilityPolicy{Replicas: 3},
			}, stats)
		} else {
			_, err = vcloud.NewMember(node, vcloud.MemberConfig{CPU: 1000}, stats)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	// Members join on the controller's first advertisements.
	if err := k.Run(5 * time.Second); err != nil {
		tb.Fatal(err)
	}
	task := vcloud.Task{Ops: 1000, InputBytes: 500, OutputBytes: 200}
	var res vcloud.TaskResult
	fired := false
	done := func(r vcloud.TaskResult) { res, fired = r, true }
	return func() {
		fired = false
		if _, err := ctl.Submit(task, done); err != nil {
			tb.Fatal(err)
		}
		for !fired && k.Step() {
		}
		if !res.OK || res.Replicas != 3 || len(res.Voters) < 2 {
			tb.Fatalf("%+v, want an OK result from a quorum of three replicas", res)
		}
	}
}

// BenchmarkVotedTask times one K=3 voted task on votedTaskRig.
func BenchmarkVotedTask(b *testing.B) {
	runTask := votedTaskRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runTask()
	}
}

// TestVotedTaskAllocs holds a voted task's allocations with tracing off:
// with no recorder set the controller boxes no trace arguments for the
// copies it dispatches or the task it finishes. Boxing them cost this
// rig 45 allocations per task; without it, 41.
func TestVotedTaskAllocs(t *testing.T) {
	runTask := votedTaskRig(t)
	runTask() // warm the controller's tables
	if n := testing.AllocsPerRun(200, runTask); n > 43 {
		t.Errorf("a voted task allocates %v times with tracing off, want at most 43", n)
	}
}
