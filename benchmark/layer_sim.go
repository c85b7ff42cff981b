package main

import (
	"time"

	"vcloud/internal/sim"
)

// Adapter for sim: the facade exposes kernels only through a scenario;
// the queue probe wants a bare one.

// probeSchedFire times one schedule-plus-fire of the event queue while it
// holds as many pending events as the workload's kernel did at its
// deepest.
func probeSchedFire(layer map[string]float64, depth int) {
	if depth < 1 {
		depth = 1
	}
	k := sim.NewKernel(1)
	nop := func() {}
	// Standing backlog far in the future keeps the heap at depth.
	for i := 0; i < depth; i++ {
		k.At(time.Hour+sim.Time(i), nop)
	}
	const n = 200_000
	layer["sim.probe_sched_fire_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			k.After(sim.Time(1+i%97)*time.Microsecond, nop)
			k.Step()
		}
	})
}
