package main

import (
	"fmt"
	"time"

	"vcloud"
)

// vanet_city: a moving fleet on a Manhattan grid with beaconing,
// mobility-similarity clustering and routed unicast flows between seeded
// origin–destination pairs. There is no cloud, no store and no crypto, so
// the substrate layers do all the work.
//
// Open loop: every flow sends one packet every five seconds at fixed
// virtual instants whatever the backlog. Op = one routed packet, 500 ms deadline.
const (
	vanetVehicles = 1000
	vanetBlocks   = 10
	vanetFlows    = 300
	vanetFlowGap  = 5 * time.Second // one packet per flow per gap: 60 packets a second in all
	// A packet that meets a routing void is of no use once its deadline
	// has passed, so it is dropped rather than carried: every delivered
	// packet then took the multi-hop path, and the latency tail measures
	// forwarding, not how many packets happened to be carried.
	vanetCarry    = time.Millisecond
	vanetWarmup   = 5 * time.Second
	vanetHorizon  = 50 * time.Second
	vanetDrain    = 3 * time.Second
	vanetDeadline = 500 * time.Millisecond
	vanetPktBytes = 500
	vanetBeacon   = time.Second
)

type vanetCity struct {
	e       *env
	s       *vcloud.Scenario
	ops     opLog
	rstats  *routingStats
	tracker *clusterTracker
	routers []router
	loc     routingLoc
	err     error // first failure inside a kernel event
	horizon time.Duration
	moving  int

	hopsSum  int
	watch    *kernelWatch
	base     substrateBase
	headBase uint64
}

func buildVanetCity(e *env) (instance, error) {
	w := &vanetCity{e: e, rstats: &routingStats{}, tracker: newClusterTracker()}
	n := e.count(vanetVehicles, 30)
	blocks := vanetBlocks
	if e.scale < 1 {
		blocks = 4
	}
	s, err := buildWorld(e.tr, cityGrid(blocks), vanetSpec(e.seed))
	if err != nil {
		return nil, err
	}
	w.s, w.moving = s, n
	w.loc = newRoutingLoc(s)
	if err := s.Start(); err != nil {
		return nil, err
	}
	// The fleet joins over the first beacon period, one vehicle at a
	// time, so beacons are spread over the period instead of all firing
	// at one instant (a thousand simultaneous frames saturate the
	// medium's airtime window). Placement comes from the seed.
	place := stream(e.seed, "vanet.fleet")
	for i := 0; i < n; i++ {
		edge, frac := place.Intn(s.Network.NumEdges()), place.Float64()
		s.Kernel.At(time.Duration(i)*vanetBeacon/time.Duration(n), func() { w.join(edge, frac) })
	}
	w.watch = watchKernel(s)
	// Warm-up: neighbor tables fill and clusters form before traffic.
	if err := advance(e.tr, s, "Kernel.Run.warmup", vanetWarmup, &w.err); err != nil {
		return nil, err
	}
	ids := s.VehicleIDs()
	if len(ids) != n {
		return nil, fmt.Errorf("fleet has %d vehicles, want %d", len(ids), n)
	}

	// Inputs: origin–destination pairs and phase offsets, from the seed.
	w.horizon = e.span(vanetHorizon, 4*time.Second)
	flows := e.count(vanetFlows, 40)
	rng := stream(e.seed, "vanet.flows")
	start := s.Kernel.Now()
	for f := 0; f < flows; f++ {
		src := rng.Intn(len(ids))
		dst := rng.Intn(len(ids) - 1)
		if dst >= src {
			dst++
		}
		phase := time.Duration(rng.Int63n(int64(vanetFlowGap)))
		for t := phase; t < w.horizon; t += vanetFlowGap {
			op := w.ops.add("packet", start+t, vanetDeadline)
			src, dst := src, addr(ids[dst])
			s.Kernel.At(start+t, func() { w.send(op, src, dst) })
		}
	}
	return w, nil
}

// join adds one vehicle with its cluster runner and router.
func (w *vanetCity) join(edge int, frac float64) {
	sid := w.e.tr.begin("scenario.AddVehicle", -1)
	defer w.e.tr.end(sid)
	id, err := addVehicle(w.s, edge, frac, 1)
	if err != nil {
		w.err = err
		return
	}
	node, _ := w.s.Node(id)
	r, err := newClusterRunner(node, w.tracker)
	if err != nil {
		w.err = err
		return
	}
	rt, err := newZoneRouter(node, w.rstats, w.loc, r, vanetCarry, w.delivered)
	if err != nil {
		w.err = err
		return
	}
	w.routers = append(w.routers, rt)
}

func (w *vanetCity) send(op, src int, dst addr) {
	id := w.e.tr.begin("routing.Send", int64(op))
	err := w.routers[src].Send(dst, vanetPktBytes, op)
	w.e.tr.end(id)
	if err != nil {
		w.ops.finish(op, w.s.Kernel.Now(), false, 0)
	}
}

func (w *vanetCity) delivered(op, hops int) {
	id := w.e.tr.begin("callback.delivered", int64(op))
	w.hopsSum += hops
	w.ops.finish(op, w.s.Kernel.Now(), true, uint64(hops))
	w.e.tr.end(id)
}

func (w *vanetCity) run() error {
	w.base = snapSubstrate(w.s)
	w.headBase = w.tracker.HeadChanges()
	w.watch.reset()
	return advance(w.e.tr, w.s, "Kernel.Run", w.horizon+vanetDrain, &w.err)
}

func (w *vanetCity) finish() (*outcome, error) {
	c := map[string]float64{}
	substrateCounters(c, w.s, w.base, w.watch)
	c["cluster.head_changes"] = float64(w.tracker.HeadChanges() - w.headBase)
	c["routing.sent"] = float64(w.rstats.Originated.Value())
	c["routing.delivered"] = float64(w.rstats.Delivered.Value())
	c["routing.transmissions"] = float64(w.rstats.Transmissions.Value())
	if d := w.rstats.Delivered.Value(); d > 0 {
		c["routing.hops_mean"] = float64(w.hopsSum) / float64(d)
	}
	if got, want := int(w.rstats.Originated.Value()), len(w.ops.ops); got > want {
		w.ops.breach("routing originated %d packets for %d ops", got, want)
	}
	return opsOutcome(&w.ops, c, derivedSubstrate(w.horizon+vanetDrain, w.moving)), nil
}

func (w *vanetCity) probes(layer map[string]float64) []string {
	probeSubstrate(layer, w.s, w.watch.pendingMax, true)
	probeClusterDecide(layer, w.s)
	probeShortestPath(layer, w.s.Network, w.e.seed)
	return nil
}

// vanetSpec sizes the radio for a city-wide fleet: the medium's collision
// model accumulates airtime over the whole world, so a thousand vehicles
// need a 1 s beacon period and a 27 Mbps channel to keep the load near a
// fifth of the air.
func vanetSpec(seed int64) vcloud.ScenarioSpec {
	r := radioDefaults()
	r.BitrateMbps = 27
	r.UnicastRetries = 7
	return vcloud.ScenarioSpec{Seed: subSeed(seed, "fleet"), Radio: r, BeaconPeriod: vanetBeacon}
}
