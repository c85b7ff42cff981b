// Emergency response: the paper's motivating disaster scenario (§II.C,
// §V.A). An infrastructure-based vehicular cloud serves traffic
// normally; mid-run a scripted earthquake — a fault plan injected
// through the deterministic fault engine — knocks out every RSU radio
// and crashes the controller processes with the hardware. The authority
// flips the region into emergency mode, a dynamic (pure V2V) cloud
// self-organizes, and the workload keeps flowing.
//
//	go run ./examples/emergency
package main

import (
	"fmt"
	"log"
	"time"

	vcloud "vcloud"
	"vcloud/internal/geo"
	"vcloud/internal/routing"
	"vcloud/internal/sim"
	ivc "vcloud/internal/vcloud"
	"vcloud/internal/vnet"
	"vcloud/internal/world"
)

func main() {
	// The earthquake, scripted before the clock starts: at t=75s every
	// RSU radio goes dark and the controller processes die with the
	// hardware. Descending kill indices: each kill removes one live
	// controller, so the remaining ones shift down.
	quake, err := vcloud.ParseFaultPlan(`
		75s rsu-down 0; 75s rsu-down 1; 75s rsu-down 2
		75s kill-controller 2; 75s kill-controller 1; 75s kill-controller 0
	`)
	if err != nil {
		log.Fatal(err)
	}
	// Phase 1: an infrastructure-based cloud coordinated by three RSUs
	// along the corridor.
	w, err := world.Build(world.Spec{
		Seed: 3, Road: world.Highway(3000, 27), Vehicles: 50,
		RSUs:   []geo.Point{{X: 500, Y: 15}, {X: 1500, Y: 15}, {X: 2500, Y: 15}},
		Cloud:  world.Default(vcloud.Infrastructure),
		Faults: quake,
	})
	if err != nil {
		log.Fatal(err)
	}
	s, infra, infraStats, inj := w.Scenario, w.Cloud, w.Stats, w.Injector

	if err := w.Start(10 * time.Second); err != nil {
		log.Fatal(err)
	}

	submit := func(cloud *vcloud.Cloud, n int) {
		for i := 0; i < n; i++ {
			_ = cloud.SubmitAnywhere(vcloud.Task{Ops: 1500, InputBytes: 2000, OutputBytes: 500}, nil)
		}
	}
	submit(infra, 20)
	if err := s.RunFor(60 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (infrastructure healthy): %d/%d tasks completed\n",
		infraStats.Completed.Value(), infraStats.Submitted.Value())

	// --- The scripted earthquake strikes at t=75s while the clock runs.
	if err := s.RunFor(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n*** disaster: all RSUs destroyed ***")
	for _, line := range inj.Log() {
		fmt.Println("  fault:", line)
	}
	if live := len(infra.ActiveControllers()); live != 0 {
		log.Fatalf("expected every infrastructure controller dead, %d still live", live)
	}

	// Phase 2: the authority declares emergency mode and vehicles
	// self-organize into a dynamic cloud over pure V2V links.
	dynStats := &vcloud.CloudStats{}
	dyn, err := ivc.Deploy(s, ivc.Dynamic, ivc.DeployConfig{Handover: true}, dynStats)
	if err != nil {
		log.Fatal(err)
	}
	dyn.SetEmergency(true)
	if err := s.RunFor(15 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic cloud formed: %d controller(s) without any infrastructure\n",
		len(dyn.ActiveControllers()))

	inEmergency := 0
	for _, m := range dyn.Members {
		if m.Emergency() {
			inEmergency++
		}
	}
	fmt.Printf("emergency mode propagated to %d/%d members\n", inEmergency, len(dyn.Members))

	submit(dyn, 20)
	if err := s.RunFor(90 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2 (V2V only): %d/%d tasks completed\n",
		dynStats.Completed.Value(), dynStats.Submitted.Value())

	// Phase 3: geocast an evacuation notice into the damage zone — the
	// region-addressed dissemination of §V.A, still with zero
	// infrastructure.
	var rstats routing.Stats
	reached := 0
	gcs := map[vcloud.VehicleID]*routing.Geocast{}
	for _, id := range s.VehicleIDs() {
		node, _ := s.Node(id)
		gc, err := routing.NewGeocast(node, &rstats, func(from vnet.Addr, data any, lat sim.Time) {
			reached++
		})
		if err != nil {
			log.Fatal(err)
		}
		gcs[id] = gc
	}
	origin := s.VehicleIDs()[0]
	zone := geo.Point{X: 1500, Y: 0}
	if err := gcs[origin].SendRegion(zone, 800, 400, "EVACUATE: bridge out at km 1.5"); err != nil {
		log.Fatal(err)
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	inZone := 0
	for _, id := range s.VehicleIDs() {
		if st, ok := s.Mobility.State(id); ok && st.Pos.Dist(zone) <= 800 {
			inZone++
		}
	}
	fmt.Printf("phase 3: evacuation geocast reached %d vehicles (%d currently in the zone), %d transmissions\n",
		reached, inZone, rstats.Transmissions.Value())

	fmt.Println("\nthe dynamic v-cloud kept computing after the infrastructure died —")
	fmt.Println("the availability argument of the paper's Fig. 2 and §IV.A.2.")
}
