// Package vnet is the VANET message layer between the raw radio medium
// and the protocol stacks (routing, clustering, auth, vcloud). It gives
// each node:
//
//   - periodic beaconing ("hello" messages carrying position, speed,
//     heading and a protocol-defined extension),
//   - a neighbor table built from received beacons with expiry,
//   - typed message dispatch (handlers keyed by message kind), and
//   - duplicate suppression for multi-hop dissemination.
//
// Every multi-hop protocol in this repository forwards hop-by-hop through
// real radio sends, so loss, delay and contention all apply at each hop —
// the property the paper's "frequently interrupted links" challenge is
// about.
package vnet

import (
	"fmt"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

// Addr is a network address (same space as radio.NodeID).
type Addr = radio.NodeID

// BroadcastAddr addresses all nodes in radio range.
const BroadcastAddr = radio.Broadcast

// Beacon is the periodic hello payload. It goes on air as a *Beacon that
// every receiver's table points into, so it is immutable once sent.
type Beacon struct {
	From    Addr
	Pos     geo.Point
	Speed   float64
	Heading float64
	// Ext carries protocol state piggybacked on beacons (e.g. cluster
	// membership, zone ids). Nil when the protocol attaches nothing.
	Ext any
}

// BeaconSize is the on-air size in bytes of a beacon (BSM-like).
const BeaconSize = 300

// Neighbor is a row in the neighbor table.
type Neighbor struct {
	Addr     Addr
	Pos      geo.Point
	Speed    float64
	Heading  float64
	Ext      any
	LastSeen sim.Time
}

// Row is a neighbor-table row as stored: the sender's latest beacon,
// shared with every other receiver of that transmission, and when it was
// heard here.
type Row struct {
	LastSeen sim.Time
	Beacon   *Beacon
}

func (r Row) neighbor() Neighbor {
	b := r.Beacon
	return Neighbor{Addr: b.From, Pos: b.Pos, Speed: b.Speed, Heading: b.Heading, Ext: b.Ext, LastSeen: r.LastSeen}
}

// Message is a typed protocol message, possibly relayed over multiple
// hops. The (Origin, Seq) pair uniquely identifies it for duplicate
// suppression.
type Message struct {
	Origin  Addr
	Seq     uint32
	Dest    Addr // final destination; BroadcastAddr for dissemination
	Kind    string
	TTL     int // hops remaining; decremented by Forward
	Size    int
	Payload any
	// OriginatedAt is stamped by the sender for latency measurement.
	OriginatedAt sim.Time
}

// Handler processes a received message. relayer is the one-hop sender the
// frame physically arrived from (== Origin on the first hop).
type Handler func(msg Message, relayer Addr)

// Config configures a node.
type Config struct {
	// BeaconPeriod is the hello interval; 0 disables beaconing.
	BeaconPeriod sim.Time
	// NeighborTTL is how long a neighbor entry survives without a fresh
	// beacon. Defaults to 3 beacon periods.
	NeighborTTL sim.Time
	// DedupCapacity bounds the duplicate-suppression table. Defaults to
	// 4096 entries.
	DedupCapacity int
}

// Node is one protocol endpoint (vehicle OBU or RSU).
type Node struct {
	addr   Addr
	kernel *sim.Kernel
	medium *radio.Medium
	cfg    Config

	// keys and rows are the neighbor table: one row per address heard
	// from, sorted by address, rows[i] belonging to keys[i]. It is written
	// once per received beacon and changes membership rarely, so a sorted
	// array (overwrite in place) beats a map that every read must walk,
	// copy out and re-sort. Rows past NeighborTTL linger until a read, or
	// an insert that would otherwise grow the table, compacts them away.
	keys []Addr
	rows []Row
	// finger is the index just after the row the last hear wrote, where
	// find looks first. Beacon tickers keep fixed phases, so a node hears
	// its neighbours in the same order every period; when that order is
	// ascending in address the next sender's row sits at the finger, or a
	// few rows past it for each frame lost in between. Only hear moves it;
	// it is a guess that find checks against the keys, never trusted, so
	// inserts and compactions may leave it anywhere.
	finger   int
	handlers map[string]Handler
	// beaconExt is called to fill Beacon.Ext on each transmission.
	beaconExt func() any
	// stateFn supplies this node's own kinematics for beacons.
	stateFn func() (pos geo.Point, speed, heading float64)

	seq uint32
	// seen is the duplicate-suppression set, seenRing its keys in arrival
	// order. Both stay empty until the first Seen (most nodes never call
	// it); the ring grows to DedupCapacity and then wraps at seenHead.
	seen     map[dedupKey]struct{}
	seenRing []dedupKey
	seenHead int

	ticker  *sim.Ticker
	stopped bool
}

type dedupKey struct {
	origin Addr
	seq    uint32
}

// NewNode creates a node on the medium. stateFn supplies the node's
// kinematics when beaconing (for a static RSU, return a constant).
func NewNode(kernel *sim.Kernel, medium *radio.Medium, addr Addr, cfg Config, stateFn func() (geo.Point, float64, float64)) (*Node, error) {
	if kernel == nil || medium == nil {
		return nil, fmt.Errorf("vnet: kernel and medium must not be nil")
	}
	if stateFn == nil {
		return nil, fmt.Errorf("vnet: stateFn must not be nil")
	}
	if cfg.NeighborTTL <= 0 {
		if cfg.BeaconPeriod > 0 {
			cfg.NeighborTTL = 3 * cfg.BeaconPeriod
		} else {
			cfg.NeighborTTL = 3 * time.Second
		}
	}
	if cfg.DedupCapacity <= 0 {
		cfg.DedupCapacity = 4096
	}
	n := &Node{
		addr:     addr,
		kernel:   kernel,
		medium:   medium,
		cfg:      cfg,
		handlers: make(map[string]Handler),
		stateFn:  stateFn,
	}
	medium.Register(addr, n.receive, n.arrive)
	return n, nil
}

// Addr returns the node's address.
func (n *Node) Addr() Addr { return n.addr }

// Start begins beaconing (if configured). Safe to call once.
func (n *Node) Start() error {
	if n.cfg.BeaconPeriod <= 0 {
		return nil
	}
	if n.ticker != nil {
		return fmt.Errorf("vnet: node %d already started", n.addr)
	}
	t, err := n.kernel.Every(n.cfg.BeaconPeriod, n.sendBeacon)
	if err != nil {
		return err
	}
	n.ticker = t
	return nil
}

// Stop halts beaconing and detaches from the medium.
func (n *Node) Stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	if n.ticker != nil {
		n.ticker.Stop()
	}
	n.medium.Unregister(n.addr)
}

// SetBeaconExt installs a function that supplies Beacon.Ext.
func (n *Node) SetBeaconExt(fn func() any) { n.beaconExt = fn }

// Handle registers the handler for a message kind, replacing any previous
// one. A nil handler unregisters.
func (n *Node) Handle(kind string, h Handler) {
	if h == nil {
		delete(n.handlers, kind)
		return
	}
	n.handlers[kind] = h
}

func (n *Node) sendBeacon() {
	if n.stopped {
		return
	}
	pos, speed, heading := n.stateFn()
	// One fresh Beacon per transmission: receivers keep the pointer.
	b := &Beacon{From: n.addr, Pos: pos, Speed: speed, Heading: heading}
	if n.beaconExt != nil {
		b.Ext = n.beaconExt()
	}
	n.medium.Beacon(n.addr, BeaconSize, b)
}

// NewMessage builds a fresh message originated here.
func (n *Node) NewMessage(dest Addr, kind string, size, ttl int, payload any) Message {
	n.seq++
	if size < 1 {
		size = 1
	}
	if ttl < 1 {
		ttl = 1
	}
	return Message{
		Origin:       n.addr,
		Seq:          n.seq,
		Dest:         dest,
		Kind:         kind,
		TTL:          ttl,
		Size:         size,
		Payload:      payload,
		OriginatedAt: n.kernel.Now(),
	}
}

// SendTo transmits msg one hop to the given next-hop address.
func (n *Node) SendTo(next Addr, msg Message) {
	n.medium.Send(n.addr, next, msg.Size, msg)
}

// BroadcastLocal transmits msg one hop to all nodes in range.
func (n *Node) BroadcastLocal(msg Message) {
	n.medium.Send(n.addr, radio.Broadcast, msg.Size, msg)
}

// Forward relays a received message one more hop after decrementing TTL.
// It reports false when the TTL is exhausted (message not sent).
func (n *Node) Forward(next Addr, msg Message) bool {
	msg.TTL--
	if msg.TTL <= 0 {
		return false
	}
	n.medium.Send(n.addr, next, msg.Size, msg)
	return true
}

// Seen reports whether the message was already received here, recording
// it as seen if not. Protocols call this before processing disseminated
// messages.
func (n *Node) Seen(msg Message) bool {
	k := dedupKey{msg.Origin, msg.Seq}
	if _, ok := n.seen[k]; ok {
		return true
	}
	if n.seen == nil {
		n.seen = make(map[dedupKey]struct{})
	}
	if len(n.seenRing) < n.cfg.DedupCapacity {
		n.seenRing = append(n.seenRing, k)
	} else {
		// Full: evict the oldest key, whose slot this write takes.
		delete(n.seen, n.seenRing[n.seenHead])
		n.seenRing[n.seenHead] = k
		n.seenHead = (n.seenHead + 1) % len(n.seenRing)
	}
	n.seen[k] = struct{}{}
	return false
}

func (n *Node) receive(f radio.Frame) {
	if n.stopped {
		return
	}
	if p, ok := f.Payload.(Message); ok {
		if h, ok := n.handlers[p.Kind]; ok {
			h(p, f.From)
		}
	}
}

// find returns the table position of addr: the index of its row when
// present, else the index a new row must be inserted at to keep the
// table sorted. It starts at the finger: a hit costs one compare, a
// sender gap rows ahead of it O(log gap) by galloping forward, and one
// behind it a binary search of the rows before it. A finger past the end
// starts over at row 0, where the next period begins.
func (n *Node) find(addr Addr) (int, bool) {
	keys := n.keys
	f := n.finger
	if f >= len(keys) {
		if len(keys) == 0 {
			return 0, false
		}
		f = 0
	}
	lo, hi := 0, f
	if k := keys[f]; k == addr {
		return f, true
	} else if k < addr {
		// Gallop: probe f+1, f+2, f+4, ... until a key reaches addr.
		lo, hi = f+1, len(keys)
		for step := 1; f+step < len(keys); step <<= 1 {
			if keys[f+step] >= addr {
				hi = f + step
				break
			}
			lo = f + step + 1
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == addr
}

// arrive is the node's radio.Inbox: a beacon is heard the moment the
// medium decides its reception, its row stamped with the instant it
// arrives. Beacons reach a node only this way: a protocol that reacts to
// neighbours reads the table.
//
//vcloudlint:hotpath once per beacon reception
func (n *Node) arrive(payload any, at sim.Time) {
	if b, ok := payload.(*Beacon); ok {
		n.hear(b, at)
	}
}

// hear records a beacon that arrives at at: a known sender's row is
// overwritten in place, a first-seen sender's row is inserted at its
// sorted position. Either way the finger moves to just after that row.
//
//vcloudlint:hotpath runs once per beacon reception, the most frequent write of every beaconing scenario
func (n *Node) hear(b *Beacon, at sim.Time) {
	i, known := n.find(b.From)
	if !known {
		if len(n.rows) == cap(n.rows) {
			// Compact before growing, so a table nobody reads stays within
			// twice its live rows instead of keeping every sender ever heard.
			// Rows expire by the clock, not by at, so no row a read now
			// would still see goes.
			n.expire(n.kernel.Now())
			i, _ = n.find(b.From)
		}
		// The growing appends: receiver-owned, amortized over receptions.
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = b.From
		n.rows = append(n.rows, Row{})
		copy(n.rows[i+1:], n.rows[i:])
	}
	n.rows[i] = Row{LastSeen: at, Beacon: b}
	n.finger = i + 1
}

// expire compacts rows older than NeighborTTL at now out of the table in
// place, keeping its order, and clears the vacated tail so dropped beacons
// are not pinned.
func (n *Node) expire(now sim.Time) {
	live := 0
	for i := range n.rows {
		if now-n.rows[i].LastSeen > n.cfg.NeighborTTL {
			continue
		}
		if live != i {
			n.keys[live] = n.keys[i]
			n.rows[live] = n.rows[i]
		}
		live++
	}
	clear(n.rows[live:])
	n.keys = n.keys[:live]
	n.rows = n.rows[:live]
}

// Rows returns the live (non-expired) rows in ascending address order —
// the order Neighbors documents — without copying them. The slice and the
// beacons it points to are the node's own storage: valid until the next
// kernel event, never to be written or retained.
//
//vcloudlint:hotpath read on every cluster decision and every routed hop
func (n *Node) Rows() []Row {
	n.expire(n.kernel.Now())
	return n.rows
}

// Neighbors appends live (non-expired) neighbor rows to dst in ascending
// address order and returns it. The ordering is load-bearing: protocol
// code iterates this slice to pick next hops and cluster heads, and
// tie-breaks must not depend on arrival order for runs to reproduce.
// Rows are copies; mutation is safe. A caller that passes its own scratch
// slice back in reads the table without allocating.
//
//vcloudlint:hotpath the copying read; per-event readers use Rows
func (n *Node) Neighbors(dst []Neighbor) []Neighbor {
	for _, r := range n.Rows() {
		dst = append(dst, r.neighbor())
	}
	return dst
}

// Neighbor returns the live entry for addr.
//
//vcloudlint:hotpath per-hop liveness check in the routing protocols
func (n *Node) Neighbor(addr Addr) (Neighbor, bool) {
	i, ok := n.find(addr)
	if !ok || n.kernel.Now()-n.rows[i].LastSeen > n.cfg.NeighborTTL {
		return Neighbor{}, false
	}
	return n.rows[i].neighbor(), true
}

// NumNeighbors returns the live neighbor count.
//
//vcloudlint:hotpath sampled per node by density probes; must not materialise the table
func (n *Node) NumNeighbors() int {
	n.expire(n.kernel.Now())
	return len(n.rows)
}

// Kernel returns the simulation kernel (for protocol timers).
func (n *Node) Kernel() *sim.Kernel { return n.kernel }

// Medium returns the underlying radio medium.
func (n *Node) Medium() *radio.Medium { return n.medium }

// Position returns the node's current position per its state function.
func (n *Node) Position() geo.Point {
	p, _, _ := n.stateFn()
	return p
}

// Speed returns the node's current speed per its state function.
func (n *Node) Speed() float64 {
	_, s, _ := n.stateFn()
	return s
}

// Heading returns the node's current heading per its state function.
func (n *Node) Heading() float64 {
	_, _, h := n.stateFn()
	return h
}
