package experiments

import (
	"fmt"
	"slices"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vnet"
)

// E14Storage measures the §III.A data-storage claim: vehicles are the
// storage nodes, so member churn is the availability problem, and the
// answer is redundancy — whole-copy quorums or erasure coding — plus
// churn-driven repair. Five arms run the identical seeded workload over
// the identical departure schedule (a vehicle permanently leaves every
// churn period, disk and all; the longest-departed returns wiped once a
// third of the fleet is out):
//
//   - unreplicated: one copy per object (N=1 W=1 R=1) — the strawman
//     every departure can hurt;
//   - quorum n=3 / n=5: strict majority quorums over whole copies;
//   - ec 4+2 / ec 8+4: Reed–Solomon fragments, any K of K+M rebuild.
//
// Reported per arm and churn period: acked writes, acked writes lost
// (the latest acked version of a key became unreconstructible), read
// availability, median read latency (erasure-coded reads fetch K
// fragments in parallel, so they beat whole-copy transfers), and write
// amplification (bytes shipped per acked object, repair included). The
// claim under test: at a churn rate where the unreplicated arm loses
// over 30% of acked writes, every redundant arm loses none — and the
// erasure-coded arms pay less amplification than n-way replication for
// comparable durability.
func E14Storage(cfg Config) (*Result, error) {
	vehicles := pick(cfg, 16, 20)
	keys := pick(cfg, 20, 50)
	horizon := sim.Time(pick(cfg, 40, 120)) * time.Second
	const (
		objSize     = 64 << 10
		writeEvery  = 500 * time.Millisecond
		repairEvery = 2 * time.Second
		checkEvery  = time.Second
	)

	type arm struct {
		name  string
		build func(store.View, *store.Stats) (store.Backend, error)
	}
	arms := []arm{
		{"unreplicated", func(v store.View, st *store.Stats) (store.Backend, error) {
			return store.NewReplicated(store.Config{N: 1, W: 1, R: 1}, v, st)
		}},
		{"quorum n=3", func(v store.View, st *store.Stats) (store.Backend, error) {
			return store.NewReplicated(store.Config{N: 3, W: 2, R: 2}, v, st)
		}},
		{"quorum n=5", func(v store.View, st *store.Stats) (store.Backend, error) {
			return store.NewReplicated(store.Config{N: 5, W: 3, R: 3}, v, st)
		}},
		{"ec 4+2", func(v store.View, st *store.Stats) (store.Backend, error) {
			return store.NewErasureCoded(store.Config{K: 4, M: 2}, v, st)
		}},
		{"ec 8+4", func(v store.View, st *store.Stats) (store.Backend, error) {
			return store.NewErasureCoded(store.Config{K: 8, M: 4, FragAck: 10}, v, st)
		}},
	}
	churns := []sim.Time{20 * time.Second, 5 * time.Second, 2 * time.Second}

	table := metrics.NewTable(
		"E14 — Storage durability & latency vs member churn (§III.A data availability)",
		"backend", "churn", "acked", "lost", "lost%", "avail", "p50 read", "amplification",
	)
	values := map[string]float64{}

	n := len(arms) * len(churns)
	err := assemble(cfg, table, values, n, func(i int, p *point) error {
		a := arms[i/len(churns)]
		churn := churns[i%len(churns)]
		churnLabel := fmt.Sprintf("%gs", churn.Seconds())

		net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: 200, AisleGapM: 40})
		if err != nil {
			return err
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: vehicles, Parked: true})
		if err != nil {
			return err
		}
		rsu, err := s.AddRSU(geo.Point{X: 0, Y: 0})
		if err != nil {
			return err
		}
		inj, err := faults.NewInjector(s)
		if err != nil {
			return err
		}
		defer inj.Close()

		// The fleet is the storage membership; departures remove members
		// permanently (their copies go with them) until revived wiped.
		fleet := make([]vnet.Addr, 0, vehicles)
		for _, id := range s.VehicleIDs() {
			fleet = append(fleet, vnet.Addr(id))
		}
		departed := map[vnet.Addr]sim.Time{}
		view := store.FuncView{
			MembersFn: func() []vnet.Addr {
				ms := make([]vnet.Addr, 0, len(fleet))
				for _, a := range fleet {
					if _, gone := departed[a]; !gone {
						ms = append(ms, a)
					}
				}
				return ms
			},
			OnlineFn: func(a vnet.Addr) bool {
				if _, gone := departed[a]; gone {
					return false
				}
				return !inj.Cut(rsu.Addr(), a)
			},
		}
		st := &store.Stats{}
		b, err := a.build(view, st)
		if err != nil {
			return err
		}

		if err := s.Start(); err != nil {
			return err
		}

		// Workload: writes rotate over the key space; reads trail behind
		// on their own rotation; repair runs on its own clock.
		acked := map[store.Key]store.Version{}
		lostAt := map[store.Key]store.Version{}
		ackedWrites, lostWrites := 0, 0
		reads, readsOK := 0, 0
		latency := &metrics.Histogram{}
		writeSeq, readSeq := 0, 0
		key := func(seq int) store.Key { return store.Key(fmt.Sprintf("obj-%02d", seq%keys)) }

		if _, err := s.Kernel.Every(writeEvery, func() {
			wk := key(writeSeq)
			writeSeq++
			if ack := store.PutSized(b, "", wk, objSize); ack.Acked {
				ackedWrites++
				acked[wk] = ack.Version
			}
			rk := key(readSeq)
			readSeq++
			reads++
			if res, ok := store.Get(b, "", rk); ok {
				readsOK++
				latency.Observe(res.Latency)
			}
		}); err != nil {
			return err
		}
		if _, err := s.Kernel.Every(repairEvery, func() { store.Fix(b) }); err != nil {
			return err
		}

		// Churn clock: one permanent departure per period, drawn from the
		// kernel's named stream so the schedule replays under the seed.
		rng := s.Kernel.NewStream("e14.churn")
		if _, err := s.Kernel.Every(churn, func() {
			if len(departed) > vehicles/3 {
				// Revive the longest-departed vehicle, wiped.
				var pick vnet.Addr = -1
				var when sim.Time
				for _, a := range fleet {
					if t, gone := departed[a]; gone && (pick < 0 || t < when) {
						pick, when = a, t
					}
				}
				delete(departed, pick)
				inj.RecoverNode(pick)
			}
			var pool []vnet.Addr
			for _, a := range fleet {
				if _, gone := departed[a]; !gone {
					pool = append(pool, a)
				}
			}
			if len(pool) == 0 {
				return
			}
			v := pool[rng.Intn(len(pool))]
			departed[v] = s.Kernel.Now()
			inj.CrashNode(v)
			b.Forget(v)
		}); err != nil {
			return err
		}

		// Durability audit: the latest acked version of every key must
		// reconstruct from surviving disks; each lost version counts once.
		audit := func() {
			for _, wk := range sortedStoreKeys(acked) {
				want := acked[wk]
				v, ok := b.Durable(wk)
				if (!ok || v < want) && lostAt[wk] < want {
					lostAt[wk] = want
					lostWrites++
				}
			}
		}
		if _, err := s.Kernel.Every(checkEvery, audit); err != nil {
			return err
		}

		if err := s.RunFor(horizon); err != nil {
			return err
		}
		audit()

		lostFrac := 0.0
		if ackedWrites > 0 {
			lostFrac = float64(lostWrites) / float64(ackedWrites)
		}
		avail := metrics.Ratio(uint64(readsOK), uint64(reads))
		p50 := 0.0
		if latency.Count() > 0 {
			p50 = latency.Percentile(50)
		}
		amp := 0.0
		if ackedWrites > 0 {
			amp = float64(st.BytesMoved.Value()) / float64(ackedWrites) / float64(objSize)
		}
		p.addRow(a.name, churnLabel,
			fmt.Sprintf("%d", ackedWrites),
			fmt.Sprintf("%d", lostWrites),
			metrics.Pct(lostFrac),
			metrics.Pct(avail),
			fmt.Sprintf("%.1fms", p50*1000),
			fmt.Sprintf("%.1fx", amp))
		prefix := fmt.Sprintf("%s/churn=%s/", a.name, churnLabel)
		p.set(prefix+"acked", float64(ackedWrites))
		p.set(prefix+"lost_frac", lostFrac)
		p.set(prefix+"avail", avail)
		p.set(prefix+"p50ms", p50*1000)
		p.set(prefix+"amplification", amp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E14", Title: "storage durability under churn", Table: table, Values: values}, nil
}

// sortedStoreKeys returns the map's keys in ascending order, so the
// audit's side effects replay identically under any map iteration.
func sortedStoreKeys[V any](m map[store.Key]V) []store.Key {
	ks := make([]store.Key, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
