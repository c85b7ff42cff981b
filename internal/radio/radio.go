// Package radio models the shared wireless medium that V2V and V2I
// communication crosses: a DSRC-like broadcast channel with
// distance-dependent reception probability, load-dependent collision
// loss, and transmission delay, plus a cellular/Internet uplink model for
// the conventional-cloud baseline (E1).
//
// The model is deliberately at the "packet-level abstraction" fidelity of
// vehicular-networking simulators: no per-bit PHY, but the three effects
// the paper's challenges derive from — limited range, intermittent
// delivery, and contention under load — are all present and tunable.
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
)

// NodeID identifies a radio endpoint (vehicle OBU or RSU).
type NodeID int32

// Broadcast is the destination value meaning "all nodes in range".
const Broadcast NodeID = -1

// Frame is a delivered radio frame.
type Frame struct {
	From    NodeID
	To      NodeID // Broadcast or a specific node
	Size    int    // bytes on air
	Payload any
	SentAt  sim.Time
}

// Handler receives frames addressed to (or overheard by) a node.
type Handler func(Frame)

// Params configures the medium.
type Params struct {
	// RangeMax is the hard reception cutoff in meters.
	RangeMax float64
	// RangeReliable is the distance up to which reception is certain
	// (absent collisions). Between RangeReliable and RangeMax the success
	// probability falls off quadratically to zero.
	RangeReliable float64
	// BitrateMbps is the channel bitrate used for transmission delay.
	BitrateMbps float64
	// LoadWindow is the sliding window over which channel airtime is
	// accumulated for the collision model.
	LoadWindow sim.Time
	// CollisionFactor scales how aggressively load translates into loss:
	// pLoss = min(MaxCollisionLoss, CollisionFactor × airtimeFraction).
	CollisionFactor float64
	// MaxCollisionLoss caps the load-induced loss probability.
	MaxCollisionLoss float64
	// UnicastRetries is the number of link-layer retransmissions for
	// unicast frames (802.11-style ARQ). Broadcasts are never retried,
	// as on a real MAC. Default 3.
	UnicastRetries int
}

// DefaultParams returns DSRC-flavoured defaults (300 m range, 6 Mbps).
func DefaultParams() Params {
	return Params{
		RangeMax:         300,
		RangeReliable:    150,
		BitrateMbps:      6,
		LoadWindow:       100 * time.Millisecond,
		CollisionFactor:  1.0,
		MaxCollisionLoss: 0.9,
		UnicastRetries:   3,
	}
}

func (p Params) validate() error {
	if p.RangeMax <= 0 {
		return fmt.Errorf("radio: RangeMax must be positive, got %v", p.RangeMax)
	}
	if p.RangeReliable <= 0 || p.RangeReliable > p.RangeMax {
		return fmt.Errorf("radio: RangeReliable must be in (0, RangeMax], got %v", p.RangeReliable)
	}
	if p.BitrateMbps <= 0 {
		return fmt.Errorf("radio: BitrateMbps must be positive, got %v", p.BitrateMbps)
	}
	if p.LoadWindow <= 0 {
		return fmt.Errorf("radio: LoadWindow must be positive, got %v", p.LoadWindow)
	}
	return nil
}

// Stats aggregates medium counters.
type Stats struct {
	Sent       uint64 // frames transmitted
	Delivered  uint64 // frame receptions (one broadcast may deliver many)
	LostRange  uint64 // receptions lost to distance fade
	LostLoad   uint64 // receptions lost to collisions
	BytesOnAir uint64
}

// Medium is the shared channel. It owns a spatial index over node
// positions which callers keep current via UpdatePosition.
type Medium struct {
	kernel *sim.Kernel
	rng    *rand.Rand
	params Params
	index  *geo.GridIndex
	// handlers is a two-level table: handlers[id>>pageBits] is the page
	// holding id's handler, nil until an id on it registers. Ids are
	// sparse but clustered (vehicles from 0, RSUs from 1<<20), so a few
	// pages cover them where one dense slice would span the gap.
	handlers []*handlerPage
	// airtime is the decaying load accumulator, in seconds of channel
	// time; lastDecay is when it was last aged.
	airtime   float64
	lastDecay sim.Time
	stats     Stats
	// partition optionally drops frames between groups (used to model
	// obstacles or jamming zones in attack experiments).
	blocked func(from, to NodeID) bool
	// blockers are additional, stackable frame filters (fault injection
	// composes outages, partitions and loss bursts without disturbing a
	// SetBlocked filter an experiment already installed).
	blockers    map[int]func(from, to NodeID) bool
	nextBlocker int
	// spies are the promiscuous nodes, which overhear every frame
	// transmitted in their range regardless of addressing — the §III
	// eavesdropping threat model. Sorted by id at registration time so
	// Send never sorts.
	spies []spy
	// scratchIDs/scratchPos are the per-medium neighbor-query buffers
	// reused across Send calls; together with the delivery freelist they
	// make a broadcast to N neighbors cost O(N) work with O(1)
	// steady-state allocations.
	scratchIDs []int32
	scratchPos []geo.Point
	freeDeliv  []*delivery
}

// pageBits sizes a handler page: 1<<pageBits consecutive ids.
const pageBits = 10

type handlerPage [1 << pageBits]Handler

type spy struct {
	id NodeID
	h  Handler
}

// delivery carries one scheduled frame reception through the kernel.
// Instances are pooled on the medium and scheduled via the kernel's
// AfterArg, so a reception costs no closure or event allocation once the
// pools are warm.
type delivery struct {
	m     *Medium
	h     Handler
	f     Frame
	count bool // increment Stats.Delivered (false for promiscuous overhears)
}

// runDelivery is the single callback behind every scheduled reception.
// The delivery is recycled before the handler runs: its fields are copied
// out first, so a handler that immediately transmits reuses the slot.
func runDelivery(a any) {
	d := a.(*delivery)
	m, h, f, count := d.m, d.h, d.f, d.count
	d.h = nil
	d.f = Frame{}
	m.freeDeliv = append(m.freeDeliv, d)
	if count {
		m.stats.Delivered++
	}
	h(f)
}

func (m *Medium) getDelivery() *delivery {
	if n := len(m.freeDeliv); n > 0 {
		d := m.freeDeliv[n-1]
		m.freeDeliv[n-1] = nil
		m.freeDeliv = m.freeDeliv[:n-1]
		return d
	}
	//vcloudlint:allow hotalloc delivery pool cold start; recycled in runDelivery so steady state is allocation-free
	return &delivery{m: m}
}

// NewMedium creates a medium over the given bounds.
func NewMedium(kernel *sim.Kernel, bounds geo.Rect, params Params) (*Medium, error) {
	if kernel == nil {
		return nil, fmt.Errorf("radio: kernel must not be nil")
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	idx, err := geo.NewGridIndex(bounds, params.RangeMax)
	if err != nil {
		return nil, fmt.Errorf("radio: %w", err)
	}
	return &Medium{
		kernel: kernel,
		rng:    kernel.NewStream("radio"),
		params: params,
		index:  idx,
	}, nil
}

// SetPromiscuous registers (or, with a nil handler, removes) an
// eavesdropping listener: the node overhears every frame whose
// transmitter is within range, including unicasts addressed to others.
// The node must have a position (UpdatePosition) to overhear anything.
func (m *Medium) SetPromiscuous(id NodeID, h Handler) {
	i := 0
	for i < len(m.spies) && m.spies[i].id < id {
		i++
	}
	switch known := i < len(m.spies) && m.spies[i].id == id; {
	case known && h == nil:
		m.spies = append(m.spies[:i], m.spies[i+1:]...)
	case known:
		m.spies[i].h = h
	case h != nil:
		m.spies = append(m.spies, spy{})
		copy(m.spies[i+1:], m.spies[i:])
		m.spies[i] = spy{id, h}
	}
}

// Register attaches a node's receive handler. Re-registering replaces the
// handler; a nil handler removes it. Negative ids (Broadcast among them)
// are not endpoints: registering one is a no-op and nothing is ever
// delivered to it. The table costs 8 bytes per 1024 ids below the largest
// one registered, so ids are expected in a few dense runs.
func (m *Medium) Register(id NodeID, h Handler) {
	if id < 0 || (h == nil && m.handler(id) == nil) {
		return // not an endpoint, or nothing to remove
	}
	p := int(id >> pageBits)
	if p >= len(m.handlers) {
		m.handlers = append(m.handlers, make([]*handlerPage, p+1-len(m.handlers))...)
	}
	if m.handlers[p] == nil {
		m.handlers[p] = new(handlerPage)
	}
	m.handlers[p][id&(1<<pageBits-1)] = h
}

// handler returns id's registered handler, or nil. A negative id maps
// past the end of any directory Register can have built.
//
//vcloudlint:hotpath looked up once per reception candidate
func (m *Medium) handler(id NodeID) Handler {
	p := uint32(id) >> pageBits
	if int(p) >= len(m.handlers) || m.handlers[p] == nil {
		return nil
	}
	return m.handlers[p][id&(1<<pageBits-1)]
}

// Unregister removes a node from the medium entirely.
func (m *Medium) Unregister(id NodeID) {
	m.Register(id, nil)
	m.index.Remove(int32(id))
}

// UpdatePosition moves a node. Vehicles call this every mobility tick;
// RSUs once at setup.
func (m *Medium) UpdatePosition(id NodeID, p geo.Point) {
	m.index.Update(int32(id), p)
}

// Position returns a node's last known position.
func (m *Medium) Position(id NodeID) (geo.Point, bool) {
	return m.index.Position(int32(id))
}

// SetBlocked installs a frame filter; frames for which fn returns true are
// silently dropped. Pass nil to clear. Attack experiments use this for
// jamming / partition injection.
func (m *Medium) SetBlocked(fn func(from, to NodeID) bool) { m.blocked = fn }

// AddBlocker installs an additional frame filter alongside SetBlocked and
// any other blockers; a frame is dropped when any filter returns true.
// It returns a removal function (safe to call more than once). The fault
// injector stacks outages, partitions and loss bursts through this.
func (m *Medium) AddBlocker(fn func(from, to NodeID) bool) (remove func()) {
	if fn == nil {
		return func() {}
	}
	if m.blockers == nil {
		m.blockers = make(map[int]func(from, to NodeID) bool)
	}
	id := m.nextBlocker
	m.nextBlocker++
	m.blockers[id] = fn
	return func() { delete(m.blockers, id) }
}

// frameBlocked reports whether any installed filter drops the frame.
func (m *Medium) frameBlocked(from, to NodeID) bool {
	//vcloudlint:allow hotalloc blocker predicates are test/model configuration; the common path has none installed
	if m.blocked != nil && m.blocked(from, to) {
		return true
	}
	if len(m.blockers) == 0 {
		return false
	}
	// Evaluate in insertion order so any blocker-side randomness draws in
	// a reproducible sequence.
	for id := 0; id < m.nextBlocker; id++ {
		if fn, ok := m.blockers[id]; ok && fn(from, to) {
			return true
		}
	}
	return false
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Params returns the medium configuration.
func (m *Medium) Params() Params { return m.params }

// Neighbors appends the IDs of nodes within range of node id (excluding
// itself) and returns the slice. It reflects true geometry, not beacons;
// protocol code should normally use vnet neighbor tables instead.
func (m *Medium) Neighbors(dst []NodeID, id NodeID) []NodeID {
	p, ok := m.index.Position(int32(id))
	if !ok {
		return dst
	}
	m.scratchIDs = m.index.WithinRange(m.scratchIDs[:0], p, m.params.RangeMax, int32(id))
	for _, r := range m.scratchIDs {
		dst = append(dst, NodeID(r))
	}
	return dst
}

// txDelay returns the on-air time of size bytes.
func (m *Medium) txDelay(size int) sim.Time {
	bits := float64(size * 8)
	sec := bits / (m.params.BitrateMbps * 1e6)
	return sim.Time(sec * float64(time.Second))
}

// loadFraction ages the airtime accumulator and returns the fraction of
// the window the channel was busy.
func (m *Medium) loadFraction() float64 {
	now := m.kernel.Now()
	if now > m.lastDecay {
		elapsed := float64(now-m.lastDecay) / float64(m.params.LoadWindow)
		m.airtime *= math.Exp(-elapsed)
		m.lastDecay = now
	}
	window := float64(m.params.LoadWindow) / float64(time.Second)
	f := m.airtime / window
	if f > 1 {
		f = 1
	}
	return f
}

// receptionProb returns the distance-fade success probability.
func (m *Medium) receptionProb(d float64) float64 {
	return m.params.ReceptionProb(d)
}

// ReceptionProb returns the distance-fade success probability at distance
// d: certain up to RangeReliable, quadratic falloff to zero at RangeMax.
// It is a pure function of the params, shared by the stream-RNG Medium
// and the counter-hash ShardChannel so both model the same physics.
func (p Params) ReceptionProb(d float64) float64 {
	if d <= p.RangeReliable {
		return 1
	}
	if d >= p.RangeMax {
		return 0
	}
	x := (d - p.RangeReliable) / (p.RangeMax - p.RangeReliable)
	return (1 - x) * (1 - x)
}

// deliver runs the reception decision for one destination and, on
// success, schedules the handler callback through the pooled delivery
// path. Shared by the unicast and broadcast arms of Send; broadcasts pass
// retries == 0 (no ARQ on a real MAC).
func (m *Medium) deliver(from, to, dst NodeID, src, dstPos geo.Point, size int, payload any, retries int, pCollide float64) {
	if m.frameBlocked(from, dst) {
		return
	}
	h := m.handler(dst)
	if h == nil {
		return
	}
	d := src.Dist(dstPos)
	pRecv := m.receptionProb(d)
	// Link-layer ARQ: unicast frames get retries+1 attempts; each
	// failed attempt costs one extra transmission slot of delay.
	attempts := 0
	ok := false
	var lossKind *uint64
	for try := 0; try <= retries; try++ {
		attempts++
		if m.rng.Float64() >= pRecv {
			lossKind = &m.stats.LostRange
			continue
		}
		if m.rng.Float64() < pCollide {
			lossKind = &m.stats.LostLoad
			continue
		}
		ok = true
		break
	}
	if !ok {
		*lossKind++
		return
	}
	dl := m.getDelivery()
	dl.h = h
	dl.f = Frame{From: from, To: to, Size: size, Payload: payload, SentAt: m.kernel.Now()}
	dl.count = true
	// Transmission delay (per attempt) plus a small MAC access jitter.
	jitter := sim.Time(m.rng.Int63n(int64(500 * time.Microsecond)))
	m.kernel.AfterArg(sim.Time(attempts)*m.txDelay(size)+jitter, runDelivery, dl)
}

// Send transmits a frame. to == Broadcast delivers to every node in range;
// otherwise only the addressed node (if in range) receives it. Send never
// fails: lost frames are simply not delivered, as on a real channel.
//
//vcloudlint:hotpath runs once per transmitted frame, the innermost loop of every radio-heavy scenario
func (m *Medium) Send(from, to NodeID, size int, payload any) {
	src, ok := m.index.Position(int32(from))
	if !ok {
		return
	}
	if size < 1 {
		size = 1
	}
	m.stats.Sent++
	m.stats.BytesOnAir += uint64(size)

	// Account airtime for the collision model.
	load := m.loadFraction()
	m.airtime += float64(m.txDelay(size)) / float64(time.Second)

	pCollide := m.params.CollisionFactor * load
	if pCollide > m.params.MaxCollisionLoss {
		pCollide = m.params.MaxCollisionLoss
	}

	if to == Broadcast {
		// One query yields neighbors and their positions into the
		// per-medium scratch buffers, already in the grid's stable order —
		// no per-broadcast sort, no per-neighbor position re-lookup.
		m.scratchIDs, m.scratchPos = m.index.WithinRangePos(
			m.scratchIDs[:0], m.scratchPos[:0], src, m.params.RangeMax, int32(from))
		for i, raw := range m.scratchIDs {
			m.deliver(from, to, NodeID(raw), src, m.scratchPos[i], size, payload, 0, pCollide)
		}
	} else if p, ok := m.index.Position(int32(to)); ok {
		retries := m.params.UnicastRetries
		if retries < 0 {
			retries = 0
		}
		m.deliver(from, to, to, src, p, size, payload, retries, pCollide)
	}

	// Eavesdroppers overhear whatever their radio can demodulate,
	// without ARQ (they cannot request retransmissions). The spy list is
	// kept sorted at registration time.
	for _, sp := range m.spies {
		if sp.id == from || sp.id == to {
			continue // the sender and the addressed node already have it
		}
		p, ok := m.index.Position(int32(sp.id))
		if !ok {
			continue
		}
		d := src.Dist(p)
		if m.rng.Float64() >= m.receptionProb(d) {
			continue
		}
		dl := m.getDelivery()
		dl.h = sp.h
		dl.f = Frame{From: from, To: to, Size: size, Payload: payload, SentAt: m.kernel.Now()}
		dl.count = false
		m.kernel.AfterArg(m.txDelay(size), runDelivery, dl)
	}
}
