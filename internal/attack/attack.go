// Package attack implements the adversary models of the paper's §III
// threat list, as live agents injected into a running scenario:
//
//   - Eavesdropper: promiscuous radio capture, plus the movement-
//     tracking analysis (§III "privacy breach: tracking movements of
//     vehicles") that links rotating pseudonyms via position continuity;
//   - Flooder: denial-of-service channel saturation;
//   - Suppressor: a malicious relay that silently drops or delays the
//     messages it should forward (message delay/suppression attack);
//   - Byzantify: cloud members that return wrong results (byzantine.go).
//
// Experiment E10 wires these against the corresponding defenses and
// reports detection/prevention rates; the replay and impersonation
// drills against auth's challenge binding live in attack_test.go.
package attack

import (
	"fmt"
	"sort"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// Eavesdropper passively captures everything in radio range from a fixed
// position and runs tracking analysis over captured beacons.
type Eavesdropper struct {
	medium *radio.Medium
	addr   radio.NodeID
	// Captured counts frames overheard, by message kind (beacons are
	// "beacon").
	Captured map[string]uint64
	// observations records (time, position, identity-ish) for tracking.
	observations []observation
}

type observation struct {
	at   sim.Time
	pos  geo.Point
	from radio.NodeID
}

// NewEavesdropper plants a listener at pos. addr must be unused by any
// legitimate node.
func NewEavesdropper(medium *radio.Medium, addr radio.NodeID, pos geo.Point) (*Eavesdropper, error) {
	if medium == nil {
		return nil, fmt.Errorf("attack: medium must not be nil")
	}
	e := &Eavesdropper{
		medium:   medium,
		addr:     addr,
		Captured: make(map[string]uint64),
	}
	medium.UpdatePosition(addr, pos)
	medium.SetPromiscuous(addr, e.onFrame)
	return e, nil
}

// Stop removes the listener.
func (e *Eavesdropper) Stop() {
	e.medium.SetPromiscuous(e.addr, nil)
	e.medium.Unregister(e.addr)
}

func (e *Eavesdropper) onFrame(f radio.Frame) {
	switch p := f.Payload.(type) {
	case *vnet.Beacon:
		e.Captured["beacon"]++
		e.observations = append(e.observations, observation{at: f.SentAt, pos: p.Pos, from: f.From})
	case vnet.Message:
		e.Captured[p.Kind]++
	default:
		e.Captured["other"]++
	}
}

// TrackingAccuracy measures how well position-continuity linking works
// against the captured beacon stream: consecutive observations are
// linked when they are within maxStep meters and maxGap time; the
// returned fraction is the share of links whose true source matches —
// i.e. how trackable vehicles are despite pseudonym-fresh addresses. A
// privacy-preserving beaconing scheme drives this toward the random
// baseline; plaintext positional beacons make it near 1.
func (e *Eavesdropper) TrackingAccuracy(maxStep float64, maxGap sim.Time) (float64, int) {
	obs := append([]observation(nil), e.observations...)
	sort.Slice(obs, func(i, j int) bool { return obs[i].at < obs[j].at })
	links, correct := 0, 0
	for i := 1; i < len(obs); i++ {
		// Link obs[i] to the nearest prior observation within the window.
		best := -1
		bestD := maxStep
		for j := i - 1; j >= 0; j-- {
			if obs[i].at-obs[j].at > maxGap {
				break
			}
			d := obs[i].pos.Dist(obs[j].pos)
			if d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 {
			continue
		}
		links++
		if obs[best].from == obs[i].from {
			correct++
		}
	}
	if links == 0 {
		return 0, 0
	}
	return float64(correct) / float64(links), links
}

// Flooder saturates the channel with junk traffic (DoS).
type Flooder struct {
	medium  *radio.Medium
	addr    radio.NodeID
	ticker  *sim.Ticker
	Sent    uint64
	stopped bool
}

// NewFlooder plants a DoS attacker at pos sending frameSize junk frames
// at the given rate (frames/second).
func NewFlooder(kernel *sim.Kernel, medium *radio.Medium, addr radio.NodeID, pos geo.Point, rate float64, frameSize int) (*Flooder, error) {
	if medium == nil || kernel == nil {
		return nil, fmt.Errorf("attack: kernel and medium must not be nil")
	}
	if rate <= 0 {
		return nil, fmt.Errorf("attack: flood rate must be positive, got %v", rate)
	}
	medium.UpdatePosition(addr, pos)
	f := &Flooder{medium: medium, addr: addr}
	period := sim.Time(float64(time.Second) / rate)
	if period <= 0 {
		period = 1
	}
	t, err := kernel.Every(period, func() {
		if f.stopped {
			return
		}
		f.Sent++
		medium.Send(addr, radio.Broadcast, frameSize, junkPayload{})
	})
	if err != nil {
		return nil, err
	}
	f.ticker = t
	return f, nil
}

type junkPayload struct{}

// Stop halts the flood.
func (f *Flooder) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	f.ticker.Stop()
	f.medium.Unregister(f.addr)
}

// Suppressor wraps a message handler chain: installed on a compromised
// relay node, it drops a fraction of messages of the given kind and
// delays the rest.
type Suppressor struct {
	node     *vnet.Node
	dropProb float64
	delay    sim.Time
	inner    vnet.Handler
	rng      func() float64
	Dropped  uint64
	Delayed  uint64
}

// InstallSuppressor interposes on node's handler for kind. dropProb in
// [0,1]; delay applies to messages that survive. The original handler
// must already be registered.
func InstallSuppressor(node *vnet.Node, kind string, inner vnet.Handler, dropProb float64, delay sim.Time, rng func() float64) (*Suppressor, error) {
	if node == nil || inner == nil {
		return nil, fmt.Errorf("attack: node and inner handler must not be nil")
	}
	if dropProb < 0 || dropProb > 1 {
		return nil, fmt.Errorf("attack: drop probability must be in [0,1], got %v", dropProb)
	}
	if rng == nil {
		return nil, fmt.Errorf("attack: rng must not be nil")
	}
	s := &Suppressor{node: node, dropProb: dropProb, delay: delay, inner: inner, rng: rng}
	node.Handle(kind, s.handle)
	return s, nil
}

func (s *Suppressor) handle(msg vnet.Message, relayer vnet.Addr) {
	if s.rng() < s.dropProb {
		s.Dropped++
		return
	}
	if s.delay > 0 {
		s.Delayed++
		s.node.Kernel().After(s.delay, func() { s.inner(msg, relayer) })
		return
	}
	s.inner(msg, relayer)
}
