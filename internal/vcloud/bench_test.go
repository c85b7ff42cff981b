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

// BenchmarkVotedTask times the controller's whole path for one K=3 task
// — place three replicas, dispatch, collect results, vote, apply — on a
// chain of static nodes: the controller and exactly three members, all
// in radio range, no mobility. The kernel steps until the task's callback
// fires (the vote accepts early at two matching results; the third lands
// in the next iteration), so the cost is the path's own events plus
// whatever advertisements and member checks fall inside the task's
// virtual span.
func BenchmarkVotedTask(b *testing.B) {
	k := sim.NewKernel(1)
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 400, Y: 100}), radio.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	stats := &vcloud.Stats{}
	var ctl *vcloud.Controller
	for i := 0; i < 4; i++ {
		addr, pos := vnet.Addr(i), geo.Point{X: float64(i) * 40}
		m.UpdatePosition(addr, pos)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{}, func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			ctl, err = vcloud.NewController(node, vcloud.ControllerConfig{
				Depend: &vcloud.DependabilityPolicy{Replicas: 3},
			}, stats)
		} else {
			_, err = vcloud.NewMember(node, vcloud.MemberConfig{Resources: vcloud.Resources{CPU: 1000}}, stats)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	// Members join on the controller's first advertisements.
	if err := k.Run(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	task := vcloud.Task{Ops: 1000, InputBytes: 500, OutputBytes: 200}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res vcloud.TaskResult
		fired := false
		if _, err := ctl.Submit(task, func(r vcloud.TaskResult) { res, fired = r, true }); err != nil {
			b.Fatal(err)
		}
		for !fired && k.Step() {
		}
		if !res.OK || res.Replicas != 3 || len(res.Voters) < 2 {
			b.Fatalf("task %d: %+v, want an OK result from a quorum of three replicas", i, res)
		}
	}
}
