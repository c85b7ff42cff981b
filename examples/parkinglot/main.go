// Parking-lot datacenter: the stationary vehicular cloud of Arif et
// al. [4] — long-term parked vehicles at an airport pool their storage
// into a datacenter. Files are replicated across vehicles; as owners
// return and drive away (churn), the store re-replicates to keep data
// available.
//
//	go run ./examples/parkinglot
package main

import (
	"fmt"
	"log"
	"time"

	vcloud "vcloud"
	"vcloud/internal/store"
	"vcloud/internal/vnet"
)

func flightKey(i int) store.Key { return store.Key(fmt.Sprintf("flight-%03d", i)) }

func main() {
	s, err := vcloud.NewParkingLotScenario(vcloud.ParkingLotOptions{Seed: 5, Vehicles: 30})
	if err != nil {
		log.Fatal(err)
	}
	stats := &vcloud.CloudStats{}
	cloud, err := vcloud.DeployCloud(s, vcloud.Stationary, stats)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Start(); err != nil {
		log.Fatal(err)
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	gate := cloud.Controllers[0]
	fmt.Printf("airport lot datacenter: %d parked vehicles joined via the gate RSU\n",
		gate.NumMembers())

	// Store 20 "flight record" files at replication factor 3 across the
	// parked fleet.
	members := gate.Members()
	online := map[vnet.Addr]bool{}
	for _, a := range members {
		online[a] = true
	}
	rstats := &store.Stats{}
	files, err := store.NewReplicated(store.Config{N: 3, W: 3, R: 1}, store.FuncView{
		MembersFn: func() []vnet.Addr { return members },
		OnlineFn:  func(a vnet.Addr) bool { return online[a] },
	}, rstats)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ack := store.PutSized(files, "", flightKey(i), 4<<20)
		if len(ack.Placed) < 3 {
			fmt.Printf("  file %d under-replicated: %d copies\n", i, len(ack.Placed))
		}
	}
	fmt.Println("stored 20 files × 3 replicas")

	// Owners come back: every 10 simulated minutes a few vehicles leave;
	// fresh arrivals replace them. We simulate the churn on the online
	// set and let the store repair.
	rng := s.Kernel.NewStream("departures")
	for round := 1; round <= 5; round++ {
		// Three random members drive away.
		for i := 0; i < 3 && len(members) > 0; i++ {
			victim := members[rng.Intn(len(members))]
			online[victim] = false
		}
		created := store.Fix(files)
		served := 0
		for i := 0; i < 20; i++ {
			if _, ok := store.Get(files, "", flightKey(i)); ok {
				served++
			}
		}
		fmt.Printf("round %d: 3 departures, repair created %d replicas, %d/20 files readable\n",
			round, created, served)
		if err := s.RunFor(10 * time.Second); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ntotals: availability %.1f%%, %d re-replications, %.0f MB moved\n",
		rstats.Availability()*100, rstats.ReReplicas.Value(),
		float64(rstats.BytesMoved.Value())/(1<<20))

	// The lot also computes: submit a few storage-side batch jobs.
	done := 0
	for i := 0; i < 10; i++ {
		_ = cloud.SubmitAnywhere(vcloud.Task{Ops: 3000, InputBytes: 1 << 16, OutputBytes: 1024},
			func(r vcloud.TaskResult) {
				if r.OK {
					done++
				}
			})
	}
	if err := s.RunFor(60 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch jobs on parked fleet: %d/10 completed\n", done)
}
