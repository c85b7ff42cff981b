package main

import (
	"vcloud"
	"vcloud/internal/trust"
)

// Adapter for trust: the facade has no worker-trust constructor.

type workerSet = trust.WorkerSet

func newWorkerSet(s *vcloud.Scenario) (*workerSet, error) {
	return trust.NewWorkerSet(s.Kernel.Now, 0)
}

// probeTrustUpdate times one evidence update plus the score read
// placement makes, over a worker set the size of the workload's fleet.
func probeTrustUpdate(layer map[string]float64, workers int) {
	if workers < 1 {
		return
	}
	ws, err := trust.NewWorkerSet(func() vcloud.Duration { return 0 }, 0)
	if err != nil {
		return
	}
	const n = 200_000
	var sink float64
	layer["trust.probe_update_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			a := addr(i % workers)
			if i%5 == 0 {
				ws.Bad(a, 1)
			} else {
				ws.Good(a, 1)
			}
			sink += ws.Score(a)
		}
	})
	_ = sink
}
