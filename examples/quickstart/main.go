// Quickstart: build a highway scenario, let vehicles self-organize into
// a dynamic vehicular cloud (no infrastructure at all), and offload a
// batch of computation tasks into it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	vcloud "vcloud"
	"vcloud/internal/world"
)

func main() {
	// 1. A 3 km two-direction highway with 40 vehicles driving IDM
	//    car-following dynamics. Everything is seeded: re-running
	//    reproduces the exact same virtual world.
	// 2. Deploy a *dynamic* vehicular cloud on it: vehicles cluster by
	//    mobility similarity, cluster heads become cloud controllers,
	//    members pool their CPU/storage/sensors.
	w, err := world.Build(world.Spec{
		Seed: 7, Road: world.Highway(3000, 27), Vehicles: 40,
		Cloud: world.Default(vcloud.Dynamic),
	})
	if err != nil {
		log.Fatal(err)
	}
	s, cloud, stats := w.Scenario, w.Cloud, w.Stats

	// 3. Start the world and give clustering a few seconds to converge.
	if err := w.Start(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 10s: %d cloud controller(s) elected\n", len(cloud.ActiveControllers()))

	// 4. Offload 20 tasks (e.g. sensor-fusion jobs) into the cloud.
	for i := 0; i < 20; i++ {
		id := i
		err := cloud.SubmitAnywhere(
			vcloud.Task{Ops: 2000, InputBytes: 4000, OutputBytes: 1000},
			func(r vcloud.TaskResult) {
				status := "completed"
				if !r.OK {
					status = "FAILED (" + string(r.Reason) + ")"
				}
				fmt.Printf("  task %2d %s in %v (handovers=%d retries=%d)\n",
					id, status, r.Latency.Round(time.Millisecond), r.Handovers, r.Retries)
			})
		if err != nil {
			fmt.Printf("  task %2d not accepted: %v\n", id, err)
		}
	}

	// 5. Run for two simulated minutes and summarize.
	if err := s.RunFor(2 * time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompletion: %d/%d (%.0f%%), p50 latency %.0f ms\n",
		stats.Completed.Value(), stats.Submitted.Value(),
		stats.CompletionRate()*100, stats.Latency.Percentile(50))
}
