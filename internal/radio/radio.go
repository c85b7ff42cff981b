// Package radio models the shared wireless medium that V2V and V2I
// communication crosses: a DSRC-like broadcast channel with
// distance-dependent reception probability, load-dependent collision
// loss, and transmission delay, plus the shared FIFO cellular/Internet
// uplink every remote cloud sits behind (E1, E16).
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
	Payload any
	SentAt  sim.Time
}

// Handler receives frames addressed to (or overheard by) a node.
type Handler func(Frame)

// Inbox takes a beacon reception (see Medium.Beacon) as data rather than
// as an event: the payload and the instant at which it arrives. The
// medium calls it the moment the reception is decided, so the reception
// costs the kernel nothing and the receiver holds it from then on.
type Inbox func(payload any, at sim.Time)

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
	// LoadWindow is the time constant over which the airtime near a
	// sender decays for the collision model (see CollisionProb).
	LoadWindow sim.Time
	// CollisionFactor scales how aggressively load translates into loss
	// (see CollisionProb).
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
	Delivered  uint64 // frame receptions that have arrived, or that were handed to an inbox (one broadcast may deliver many)
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
	// holding id's endpoint, nil until an id on it registers. Ids are
	// sparse but clustered (vehicles from 0, RSUs from 1<<20), so a few
	// pages cover them where one dense slice would span the gap.
	handlers []*handlerPage
	// load holds one decaying airtime accumulator per cell of index, in
	// the index's row-major cell order (see busyNear).
	load  []cellLoad
	stats Stats
	// faults holds the crashes, isolations, partitions and loss the fault
	// injector installs; Send judges every reception against it.
	faults FaultTable
	// spies are the promiscuous nodes, which overhear every frame
	// transmitted in their range regardless of addressing — the §III
	// eavesdropping threat model. Sorted by id at registration time so
	// Send never sorts them.
	spies []spy
	// scratchIDs/scratchPos are the per-medium neighbor-query buffers
	// reused across Send calls, and rx collects one frame's receptions in
	// decision order until they move into a frame run; together with the
	// frame-run freelists they make a broadcast to N neighbors cost O(N)
	// work with O(1) steady-state allocations.
	scratchIDs []int32
	scratchPos []geo.Point
	rx         []reception
	freeRuns   [2][]*frameRun // small runs, then large ones (see smallRun)
}

// pageBits sizes a handler page: 1<<pageBits consecutive ids.
const pageBits = 10

type handlerPage [1 << pageBits]endpoint

// endpoint is a registered node: the handler its frames run, and the
// inbox that takes its beacon receptions, if it keeps one.
type endpoint struct {
	h  Handler
	in Inbox
}

// cellLoad is the airtime transmitted from one grid cell, in seconds of
// channel time, as of last, when it was last aged.
type cellLoad struct {
	airtime float64
	last    sim.Time
}

type spy struct {
	id NodeID
	h  Handler
}

// reception is one decided frame reception: its delay from the frame's
// transmission, the handler it runs, whether it counts as Delivered
// (promiscuous overhears do not) and, once scheduled, the run that holds
// its frame.
type reception struct {
	delay sim.Time
	h     Handler
	count bool
	run   *frameRun
}

// frameRun is one transmitted frame in flight: the frame once, and its
// receptions in decision order, each scheduled as its own kernel event
// with a pointer to its slot in rx as the argument; left counts those
// still to fire. Runs are pooled on the medium, so a frame costs no event
// or closure allocation once the pool is warm.
type frameRun struct {
	m    *Medium
	f    Frame
	rx   []reception
	left int
}

// smallRun bounds a small frame: a unicast's reception and a few
// overhearing spies. Small and larger frames pool their runs apart, so
// the many unicasts in flight never each hold a run a broadcast has grown
// to its neighbourhood's size. A run's receptions grow by append, so a
// run only small frames have used keeps a capacity of at most smallRun.
const smallRun = 4

// runClass is the freelist a run of capacity c, or a frame of c
// receptions, belongs to.
func runClass(c int) int {
	if c > smallRun {
		return 1
	}
	return 0
}

// fireReception is the event callback behind every reception. The
// reception and its frame are copied out first, and whichever reception
// of the run fires last recycles the run before its handler runs, so a
// handler that transmits reuses it.
func fireReception(a any) {
	rx := *a.(*reception)
	r := rx.run
	m, f := r.m, r.f
	if r.left--; r.left == 0 {
		clear(r.rx)
		r.rx = r.rx[:0]
		r.f = Frame{}
		free := &m.freeRuns[runClass(cap(r.rx))]
		*free = append(*free, r)
	}
	if rx.count {
		m.stats.Delivered++
	}
	rx.h(f)
}

// getRun takes a run for a frame of n receptions from its class's pool.
//
//vcloudlint:hotpath once per transmitted frame that anyone receives
func (m *Medium) getRun(n int) *frameRun {
	class := runClass(n)
	free := &m.freeRuns[class]
	if k := len(*free); k > 0 {
		r := (*free)[k-1]
		(*free)[k-1] = nil
		*free = (*free)[:k-1]
		return r
	}
	//vcloudlint:allow hotalloc frame-run pool cold start; recycled by its last reception so steady state is allocation-free
	return &frameRun{m: m}
}

// take moves the frame's decided receptions into the run, each pointing
// back at it.
func (r *frameRun) take(rx []reception) {
	r.rx = append(r.rx, rx...)
	r.left = len(r.rx)
	for i := range r.rx {
		r.rx[i].run = r
	}
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
	_, _, cols, rows := idx.Cell(bounds.Min)
	return &Medium{
		kernel: kernel,
		rng:    kernel.NewStream("radio"),
		params: params,
		index:  idx,
		load:   make([]cellLoad, cols*rows),
		faults: FaultTable{rng: kernel.NewStream("faults")},
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

// Register attaches a node: h runs the frames Send delivers to it, and
// the inbox, if one is passed, takes the beacons that reach it (see
// Beacon). A node registered without an inbox hears no beacons; the
// inbox is optional only so that such Send-only endpoints (the
// benchmark's radio probe) keep a two-argument call, and any past the
// first is ignored. Re-registering replaces both; a nil handler removes
// the node. Negative ids (Broadcast
// among them) are not endpoints: registering one is a no-op and nothing
// is ever delivered to it. The table costs 8 bytes per 1024 ids below the
// largest one registered, so ids are expected in a few dense runs.
func (m *Medium) Register(id NodeID, h Handler, in ...Inbox) {
	if id < 0 || (h == nil && m.endpoint(id).h == nil) {
		return // not an endpoint, or nothing to remove
	}
	p := int(id >> pageBits)
	if p >= len(m.handlers) {
		m.handlers = append(m.handlers, make([]*handlerPage, p+1-len(m.handlers))...)
	}
	if m.handlers[p] == nil {
		m.handlers[p] = new(handlerPage)
	}
	ep := endpoint{h: h}
	if h != nil && len(in) > 0 {
		ep.in = in[0]
	}
	m.handlers[p][id&(1<<pageBits-1)] = ep
}

// endpoint returns id's registration, zero when it has none. A negative
// id maps past the end of any directory Register can have built.
//
//vcloudlint:hotpath looked up once per reception candidate
func (m *Medium) endpoint(id NodeID) endpoint {
	p := uint32(id) >> pageBits
	if int(p) >= len(m.handlers) || m.handlers[p] == nil {
		return endpoint{}
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

// Stats returns a copy of the medium counters. A beacon reception counts
// as Delivered when it is handed to its inbox.
func (m *Medium) Stats() Stats { return m.stats }

// Params returns the medium configuration.
func (m *Medium) Params() Params { return m.params }

// Airtime returns the on-air time of size bytes.
func (p Params) Airtime(size int) sim.Time {
	bits := float64(size * 8)
	sec := bits / (p.BitrateMbps * 1e6)
	return sim.Time(sec * float64(time.Second))
}

// CollisionProb returns the load-dependent loss probability of a frame
// whose sender's air was busy for the share busy of the load window:
// min(MaxCollisionLoss, CollisionFactor × min(busy, 1)). It is the one
// collision verdict, shared by the stream-RNG Medium and the counter-hash
// ShardChannel as ReceptionProb is for fade.
func (p Params) CollisionProb(busy float64) float64 {
	return min(p.MaxCollisionLoss, p.CollisionFactor*min(busy, 1))
}

// busyNear ages the accumulators of the 3×3 cells around the sender's
// cell, which cover its disk of radius RangeMax, and returns the share of
// the load window their air was busy, and the sender's own cell.
//
//vcloudlint:hotpath once per transmitted frame
func (m *Medium) busyNear(src geo.Point) (busy float64, own *cellLoad) {
	cx, cy, cols, rows := m.index.Cell(src)
	now := m.kernel.Now()
	var airtime float64
	x0, x1, y0, y1 := max(cx-1, 0), min(cx+1, cols-1), max(cy-1, 0), min(cy+1, rows-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			c := &m.load[y*cols+x]
			if now > c.last {
				if c.airtime > 0 { // most cells of a block are empty: skip their Exp
					c.airtime *= math.Exp(-float64(now-c.last) / float64(m.params.LoadWindow))
				}
				c.last = now
			}
			airtime += c.airtime
		}
	}
	return airtime / (float64(m.params.LoadWindow) / float64(time.Second)), &m.load[cy*cols+cx]
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

// deliver runs the reception decision for one destination at dstPos and,
// on success, returns the receiver's endpoint and the reception's delay.
// Shared by the unicast and broadcast arms of send; broadcasts pass
// retries == 0 (no ARQ on a real MAC). tx is the frame's on-air time;
// faulty says whether send took the sender's side of an installed fault
// table. A beacon's candidates are the endpoints with an inbox, any
// other frame's those with a handler; the rest are passed over before
// any radio draw.
func (m *Medium) deliver(dst NodeID, src, dstPos geo.Point, tx sim.Time, retries int, pCollide float64, faulty, beacon bool) (endpoint, sim.Time, bool) {
	if faulty && m.faults.drops(dst, dstPos) {
		return endpoint{}, 0, false
	}
	ep := m.endpoint(dst)
	if ep.h == nil || beacon && ep.in == nil {
		return endpoint{}, 0, false
	}
	d := src.Dist(dstPos)
	pRecv := m.params.ReceptionProb(d)
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
		return endpoint{}, 0, false
	}
	// Transmission delay (per attempt) plus a small MAC access jitter.
	jitter := sim.Time(m.rng.Int63n(int64(500 * time.Microsecond)))
	return ep, sim.Time(attempts)*tx + jitter, true
}

// scheduleReceptions moves the frame's event receptions into a frame run
// and schedules each as its own kernel event, in the order they were
// decided and drew from the radio stream. They take one contiguous block
// of kernel seq, so the (at, seq) order every trace follows is exactly
// what scheduling each reception on the spot gave.
//
//vcloudlint:hotpath once per transmitted frame; the schedule behind every reception
func (m *Medium) scheduleReceptions(f Frame) {
	if len(m.rx) == 0 {
		return
	}
	r := m.getRun(len(m.rx))
	r.f = f
	r.take(m.rx)
	now := m.kernel.Now()
	for i := range r.rx {
		m.kernel.AtArg(now+r.rx[i].delay, fireReception, &r.rx[i])
	}
	// The run holds the handlers now; the scratch must not pin them.
	clear(m.rx)
	m.rx = m.rx[:0]
}

// Send transmits a frame. to == Broadcast delivers to every node in range;
// otherwise only the addressed node (if in range) receives it. Send never
// fails: lost frames are simply not delivered, as on a real channel.
func (m *Medium) Send(from, to NodeID, size int, payload any) {
	m.send(from, to, size, payload, false)
}

// Beacon broadcasts a beacon: a frame whose receptions are state, not
// events. Its receptions are decided exactly as Send decides a
// broadcast's, over the receivers that registered an inbox, and each is
// handed to its receiver's inbox on the spot, in decision order, with the
// instant it arrives: a beacon schedules no kernel event but a spy's
// overhearing.
func (m *Medium) Beacon(from NodeID, size int, payload any) {
	m.send(from, Broadcast, size, payload, true)
}

// send transmits a frame for Send and Beacon.
//
//vcloudlint:hotpath runs once per transmitted frame, the innermost loop of every radio-heavy scenario
func (m *Medium) send(from, to NodeID, size int, payload any, beacon bool) {
	src, ok := m.index.Position(int32(from))
	if !ok {
		return
	}
	if size < 1 {
		size = 1
	}
	m.stats.Sent++
	m.stats.BytesOnAir += uint64(size)

	// The frame is judged against the air near its sender, then charges
	// its own airtime to the sender's cell.
	busy, own := m.busyNear(src)
	tx := m.params.Airtime(size)
	own.airtime += float64(tx) / float64(time.Second)
	pCollide := m.params.CollisionProb(busy)

	// The sender's side of every installed fault is taken once per frame;
	// deliver then judges each receiver at the position the range query
	// (or the unicast lookup) returned.
	faulty := m.faults.active()
	if faulty {
		m.faults.from(from, src, true)
	}

	if to == Broadcast {
		// One query yields neighbors and their positions into the
		// per-medium scratch buffers, already in the grid's stable order —
		// no per-broadcast sort, no per-neighbor position re-lookup.
		m.scratchIDs, m.scratchPos = m.index.WithinRangePos(
			m.scratchIDs[:0], m.scratchPos[:0], src, m.params.RangeMax, int32(from))
		now := m.kernel.Now()
		for i, raw := range m.scratchIDs {
			ep, delay, ok := m.deliver(NodeID(raw), src, m.scratchPos[i], tx, 0, pCollide, faulty, beacon)
			switch {
			case !ok:
			case beacon:
				m.stats.Delivered++
				//vcloudlint:allow hotalloc the receiver's inbox (vnet.Node.arrive); TestBroadcastAllocs holds a warm beacon to inbox receivers at zero
				ep.in(payload, now+delay)
			default:
				m.rx = append(m.rx, reception{delay: delay, h: ep.h, count: true})
			}
		}
	} else if p, ok := m.index.Position(int32(to)); ok {
		retries := m.params.UnicastRetries
		if retries < 0 {
			retries = 0
		}
		if ep, delay, ok := m.deliver(to, src, p, tx, retries, pCollide, faulty, false); ok {
			m.rx = append(m.rx, reception{delay: delay, h: ep.h, count: true})
		}
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
		if m.rng.Float64() >= m.params.ReceptionProb(d) {
			continue
		}
		m.rx = append(m.rx, reception{delay: tx, h: sp.h})
	}
	m.scheduleReceptions(Frame{From: from, Payload: payload, SentAt: m.kernel.Now()})
}
