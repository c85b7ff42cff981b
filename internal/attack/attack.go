// Package attack implements the adversary models of the paper's §III
// threat list, as live agents injected into a running scenario:
//
//   - Eavesdropper: promiscuous radio capture, plus the movement-
//     tracking analysis (§III "privacy breach: tracking movements of
//     vehicles") that links rotating pseudonyms via position continuity;
//   - Replayer: captures frames and re-transmits them later (replay
//     attack);
//   - Impersonator: crafts messages claiming a victim's origin address;
//   - Flooder: denial-of-service channel saturation;
//   - Suppressor: a malicious relay that silently drops or delays the
//     messages it should forward (message delay/suppression attack);
//   - Sybil: one physical attacker operating many fabricated identities
//     (the false-data amplification E9/E10 measure);
//   - FalseReporter: injects fabricated event reports (data
//     "disruption").
//
// Experiment E10 wires these against the corresponding defenses and
// reports detection/prevention rates.
package attack

import (
	"fmt"
	"math"
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

// TotalCaptured returns the total overheard frame count.
func (e *Eavesdropper) TotalCaptured() uint64 {
	var total uint64
	for _, v := range e.Captured {
		total += v
	}
	return total
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

// Replayer captures frames promiscuously and can re-transmit the last
// captured message of a given kind from its own radio.
type Replayer struct {
	medium   *radio.Medium
	addr     radio.NodeID
	captured map[string]vnet.Message
	Replayed uint64
}

// NewReplayer plants a replay attacker at pos.
func NewReplayer(medium *radio.Medium, addr radio.NodeID, pos geo.Point) (*Replayer, error) {
	if medium == nil {
		return nil, fmt.Errorf("attack: medium must not be nil")
	}
	r := &Replayer{medium: medium, addr: addr, captured: make(map[string]vnet.Message)}
	medium.UpdatePosition(addr, pos)
	medium.SetPromiscuous(addr, func(f radio.Frame) {
		if m, ok := f.Payload.(vnet.Message); ok {
			r.captured[m.Kind] = m
		}
	})
	return r, nil
}

// Stop removes the attacker.
func (r *Replayer) Stop() {
	r.medium.SetPromiscuous(r.addr, nil)
	r.medium.Unregister(r.addr)
}

// Has reports whether a message of the kind has been captured.
func (r *Replayer) Has(kind string) bool {
	_, ok := r.captured[kind]
	return ok
}

// Replay re-transmits the captured message of the kind to the target (or
// broadcast). It reports whether anything was captured to replay.
func (r *Replayer) Replay(kind string, to vnet.Addr) bool {
	m, ok := r.captured[kind]
	if !ok {
		return false
	}
	r.Replayed++
	r.medium.Send(r.addr, to, m.Size, m)
	return true
}

// Impersonator sends protocol messages with a forged origin.
type Impersonator struct {
	medium *radio.Medium
	addr   radio.NodeID
	Sent   uint64
}

// NewImpersonator plants an impersonation attacker at pos.
func NewImpersonator(medium *radio.Medium, addr radio.NodeID, pos geo.Point) (*Impersonator, error) {
	if medium == nil {
		return nil, fmt.Errorf("attack: medium must not be nil")
	}
	medium.UpdatePosition(addr, pos)
	return &Impersonator{medium: medium, addr: addr}, nil
}

// SendAs transmits a message whose Origin claims to be victim.
func (i *Impersonator) SendAs(victim, to vnet.Addr, kind string, size int, payload any) {
	i.Sent++
	msg := vnet.Message{
		Origin:  victim,
		Seq:     uint32(0xFFFF0000) + uint32(i.Sent),
		Dest:    to,
		Kind:    kind,
		TTL:     1,
		Size:    size,
		Payload: payload,
	}
	i.medium.Send(i.addr, to, size, msg)
}

// Flooder saturates the channel with junk traffic (DoS).
type Flooder struct {
	medium  *radio.Medium
	kernel  *sim.Kernel
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
	f := &Flooder{medium: medium, kernel: kernel, addr: addr}
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
	kind     string
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
	s := &Suppressor{node: node, kind: kind, dropProb: dropProb, delay: delay, inner: inner, rng: rng}
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

// Sybil is one physical transmitter operating many fabricated
// identities from (approximately) one position.
type Sybil struct {
	medium *radio.Medium
	ids    []radio.NodeID
}

// NewSybil fabricates n identities at positions jittered around pos.
func NewSybil(medium *radio.Medium, baseAddr radio.NodeID, n int, pos geo.Point, jitter float64) (*Sybil, error) {
	if medium == nil {
		return nil, fmt.Errorf("attack: medium must not be nil")
	}
	if n < 1 {
		return nil, fmt.Errorf("attack: sybil needs at least one identity, got %d", n)
	}
	s := &Sybil{medium: medium}
	for i := 0; i < n; i++ {
		id := baseAddr + radio.NodeID(i)
		ang := float64(i) * 2 * math.Pi / float64(n)
		p := geo.Point{X: pos.X + jitter*math.Cos(ang), Y: pos.Y + jitter*math.Sin(ang)}
		medium.UpdatePosition(id, p)
		s.ids = append(s.ids, id)
	}
	return s, nil
}

// IDs returns the fabricated identities.
func (s *Sybil) IDs() []radio.NodeID {
	return append([]radio.NodeID(nil), s.ids...)
}

// BroadcastAll sends the same payload once per fabricated identity —
// fake consensus amplification.
func (s *Sybil) BroadcastAll(kind string, size int, mkPayload func(id radio.NodeID) any) {
	for _, id := range s.ids {
		msg := vnet.Message{
			Origin: vnet.Addr(id), Seq: 1, Dest: vnet.BroadcastAddr,
			Kind: kind, TTL: 1, Size: size, Payload: mkPayload(id),
		}
		s.medium.Send(id, radio.Broadcast, size, msg)
	}
}

// Stop removes all fabricated identities.
func (s *Sybil) Stop() {
	for _, id := range s.ids {
		s.medium.Unregister(id)
	}
}
