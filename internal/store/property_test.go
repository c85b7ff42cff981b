package store_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/store"
	"vcloud/internal/vnet"
)

// TestQuorumIntersectionProperty: for EVERY configuration N <= 9 with
// W + R > N, a read that succeeds returns at least the newest acked
// version — under any schedule of crashes, recoveries, geometric
// partitions, heals, writes, reads and repair passes drawn from the
// fault injector. Overlapping quorums are the whole mechanism: the
// write quorum and the read quorum must share a member, so staleness
// can only ever surface as refusal (no quorum), never as a stale
// success. Configurations with W + R <= N are exactly the ones where
// this fails, which is why Config.Validate rejects them.
func TestQuorumIntersectionProperty(t *testing.T) {
	for n := 1; n <= 9; n++ {
		net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 3, AisleLenM: 120, AisleGapM: 30})
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.New(scenario.Spec{Seed: int64(n), Network: net, NumVehicles: n, Parked: true})
		if err != nil {
			t.Fatal(err)
		}
		rsu, err := s.AddRSU(geo.Point{X: 0, Y: 0})
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
		fleet := make([]vnet.Addr, 0, n)
		for _, id := range s.VehicleIDs() {
			fleet = append(fleet, vnet.Addr(id))
		}
		for w := 1; w <= n; w++ {
			for r := 1; r <= n; r++ {
				if w+r <= n {
					continue
				}
				t.Run(fmt.Sprintf("n%d_w%d_r%d", n, w, r), func(t *testing.T) {
					runQuorumSchedules(t, s, inj, rsu.Addr(), fleet, n, w, r)
				})
			}
		}
		inj.Close()
	}
}

// runQuorumSchedules drives testing/quick over randomized fault/IO
// schedules for one (N, W, R) configuration.
func runQuorumSchedules(t *testing.T, s *scenario.Scenario, inj *faults.Injector, rsu vnet.Addr, fleet []vnet.Addr, n, w, r int) {
	bounds := s.Network.Bounds()
	view := store.FuncView{
		MembersFn: func() []vnet.Addr { return fleet },
		OnlineFn:  func(a vnet.Addr) bool { return !inj.Cut(rsu, a) },
	}
	f := func(raw []uint16) bool {
		crashed := map[vnet.Addr]bool{}
		// Each schedule starts from a clean radio: no faults carry over.
		defer func() {
			for _, a := range fleet {
				inj.RecoverNode(a)
			}
		}()
		b, err := store.NewReplicated(store.Config{
			N: n, W: w, R: r,
			// Crashes are outages, not departures: holders keep their
			// disks, so recovery restores stale copies the read quorum
			// must then outvote — the adversarial case for intersection.
			RetainOffline: true,
		}, view, &store.Stats{})
		if err != nil {
			t.Fatalf("config n=%d w=%d r=%d rejected: %v", n, w, r, err)
		}
		acked := map[store.Key]store.Version{}
		var heals []func()
		defer func() {
			for _, h := range heals {
				h()
			}
		}()
		for _, op := range raw {
			member := fleet[int(op/8)%len(fleet)]
			key := store.Key(fmt.Sprintf("k%d", (op/64)%4))
			switch op % 8 {
			case 0, 1: // write
				if ack := store.PutSized(b, "", key, 4<<10); ack.Acked {
					acked[key] = ack.Version
				}
			case 2, 3: // read — the property check
				want := acked[key]
				if res, ok := store.Get(b, "", key); ok && res.Version < want {
					t.Logf("n=%d w=%d r=%d: read %s served v%d after ack v%d", n, w, r, key, res.Version, want)
					return false
				}
			case 4: // crash / recover toggles one member
				kind := faults.Crash
				if crashed[member] {
					kind = faults.Recover
				}
				inj.Apply(faults.Event{Kind: kind, Target: int(member)})
				crashed[member] = !crashed[member]
			case 5: // geometric partition around a pseudo-random point
				c := geo.Point{
					X: bounds.Min.X + bounds.Width()*float64(op%97)/97,
					Y: bounds.Min.Y + bounds.Height()*float64(op%89)/89,
				}
				heals = append(heals, inj.Apply(faults.Event{Kind: faults.Partition, Center: c, Radius: 40 + float64(op%50)}))
			case 6: // heal the oldest open partition
				if len(heals) > 0 {
					heals[0]()
					heals = heals[1:]
				}
			case 7: // repair pass
				store.Fix(b)
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(int64(n*100 + w*10 + r)))
	if err := quick.Check(f, &quick.Config{MaxCount: 4, Rand: rng}); err != nil {
		t.Error(err)
	}
}
