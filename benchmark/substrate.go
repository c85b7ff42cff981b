package main

import (
	"time"

	"vcloud"
)

// Counters and samples every serial-kernel workload reads from the
// substrate layers (sim, geo, mobility, radio, vnet).

// kernelWatch samples the kernel once per virtual second: the event-queue
// depth and the mean neighbor-table size. The sampler is part of every
// run, traced or not, so it cannot make the two differ.
type kernelWatch struct {
	s          *vcloud.Scenario
	pendingMax int
	nbrSum     int
	nbrNodes   int
}

func watchKernel(s *vcloud.Scenario) *kernelWatch {
	w := &kernelWatch{s: s}
	// Every only fails for a non-positive period.
	_, _ = s.Kernel.Every(time.Second, w.sample)
	return w
}

func (w *kernelWatch) sample() {
	if p := w.s.Kernel.Pending(); p > w.pendingMax {
		w.pendingMax = p
	}
	for _, n := range w.s.Nodes {
		w.nbrSum += n.NumNeighbors()
	}
	for _, n := range w.s.RSUs {
		w.nbrSum += n.NumNeighbors()
	}
	w.nbrNodes += len(w.s.Nodes) + len(w.s.RSUs)
}

// reset starts the samples over at the beginning of the timed interval.
func (w *kernelWatch) reset() { w.pendingMax, w.nbrSum, w.nbrNodes = 0, 0, 0 }

// substrateBase is the counter state at the start of the timed interval.
type substrateBase struct {
	radio  radioStats
	events uint64
}

func snapSubstrate(s *vcloud.Scenario) substrateBase {
	return substrateBase{radio: s.Medium.Stats(), events: s.Kernel.Processed()}
}

// mobilityTick is the scenario's kinematics timestep; no workload
// overrides the default.
const mobilityTick = 100 * time.Millisecond

// derivedSubstrate returns the mobility and geo work figures of a timed
// interval of length d with a moving fleet of the given size. mobility
// and geo keep no public counters, so these are derived from the
// benchmark's own configuration, not read from the program: one
// kinematics step per moving vehicle per tick (none on a parked lot),
// each rewriting the vehicle's entry in both spatial indexes (mobility's
// and the radio medium's). They are listed in derivedLayer, stay out of
// the digest and cannot show a change in the layers.
func derivedSubstrate(d time.Duration, moving int) map[string]float64 {
	steps := float64(d/mobilityTick) * float64(moving)
	return map[string]float64{"mobility.steps": steps, "geo.updates": 2 * steps}
}

// substrateCounters writes the exact substrate counters of the timed
// interval.
func substrateCounters(c map[string]float64, s *vcloud.Scenario, b substrateBase, w *kernelWatch) {
	r := s.Medium.Stats()
	sent := float64(r.Sent - b.radio.Sent)
	delivered := float64(r.Delivered - b.radio.Delivered)
	lostRange := float64(r.LostRange - b.radio.LostRange)
	lostLoad := float64(r.LostLoad - b.radio.LostLoad)
	c["sim.events"] = float64(s.Kernel.Processed() - b.events)
	c["sim.pending_max"] = float64(w.pendingMax)
	c["radio.sent"] = sent
	c["radio.delivered"] = delivered
	c["radio.lost_range"] = lostRange
	c["radio.lost_load"] = lostLoad
	if cand := delivered + lostRange + lostLoad; cand > 0 {
		c["radio.delivery_ratio"] = delivered / cand
		// Every transmitted frame makes one range query; each node the
		// query returns ends as exactly one of delivered, lost to range
		// or lost to load.
		c["geo.query_hits_mean"] = cand / sent
	}
	if w.nbrNodes > 0 {
		c["vnet.neighbors_mean"] = float64(w.nbrSum) / float64(w.nbrNodes)
	}
}

// opsOutcome turns an op ledger, the exact counters and the derived
// figures into the repetition's outcome.
func opsOutcome(l *opLog, c, derived map[string]float64) *outcome {
	sum := l.summary()
	lat := sum.Latencies
	if lat == nil {
		lat = []float64{}
	}
	return &outcome{
		Attempted: sum.Attempted,
		OK:        sum.OK,
		OnTime:    sum.OnTime,
		Latencies: lat,
		Counters:  c,
		Derived:   derived,
		OpDigest:  l.digest(),
		Breaches:  l.breaches,
	}
}

// probeSubstrate runs the isolated probes of the substrate layers over
// the world the workload ended with.
func probeSubstrate(layer map[string]float64, s *vcloud.Scenario, pendingMax int, moving bool) {
	probeSchedFire(layer, pendingMax)
	probeGeo(layer, s)
	probeRadioSend(layer, s)
	if n := s.Mobility.NumVehicles(); moving && n > 0 {
		rounds := 1 + 20_000/n
		layer["mobility.probe_step_ns_per_veh"] = perCallNs(rounds*n, func() {
			for r := 0; r < rounds; r++ {
				s.Mobility.Step(0.1)
			}
		})
	}
}

// advance runs the scenario's kernel for d under a span, and surfaces the
// first failure a kernel event of the benchmark recorded in *evErr (nil
// when the workload's events cannot fail).
func advance(tr *tracer, s *vcloud.Scenario, name string, d time.Duration, evErr *error) error {
	id := tr.begin(name, -1)
	err := s.RunFor(d)
	tr.end(id)
	if err == nil && evErr != nil {
		err = *evErr
	}
	return err
}
