package routing

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

const (
	epidemicKind = "route.epidemic"
	epidemicTTL  = 16
	// epidemicLifetime bounds how long a copy is stored and re-offered
	// (the DTN buffer expiry).
	epidemicLifetime = 30 * time.Second
	// epidemicBuffer caps the per-node store.
	epidemicBuffer = 64
	// contactWindow: a neighbour silent this long before its latest
	// beacon is a new contact, and triggers a buffer exchange.
	contactWindow = 10 * time.Second
	// flushMinGap is the contact scan's period: at most one flush per gap.
	flushMinGap = time.Second
)

// Epidemic implements store–carry–forward epidemic routing: every node
// buffers the packets it hears and re-broadcasts its buffer whenever it
// meets a node it has not seen recently. Delivery approaches the upper
// bound of what any routing protocol could achieve; the cost — counted
// in Stats.Transmissions — is the point of the E4 comparison.
type Epidemic struct {
	common
	rng    *rand.Rand
	buffer map[bufferKey]bufferedMsg
	// contacts holds when each neighbour was last heard, as of the last
	// scan, to tell a new encounter from an ongoing one. The scan drops
	// entries older than contactWindow: a neighbour heard again after
	// that is a new encounter whether it is remembered or not.
	contacts map[vnet.Addr]sim.Time
	scan     *sim.Ticker
	stopped  bool
}

type bufferKey struct {
	origin vnet.Addr
	seq    uint32
}

type bufferedMsg struct {
	msg     vnet.Message
	expires sim.Time
}

// keyOrder orders buffered copies by (origin, seq).
func keyOrder(a, b bufferKey) int {
	return cmp.Or(cmp.Compare(a.origin, b.origin), cmp.Compare(a.seq, b.seq))
}

// NewEpidemic creates an epidemic router on node. Contacts are found in
// the node's neighbour table, so its neighbours must beacon (scenario
// default) for exchanges to trigger.
func NewEpidemic(node *vnet.Node, stats *Stats, deliver DeliverFunc) (*Epidemic, error) {
	c, err := newCommon(node, stats, deliver)
	if err != nil {
		return nil, err
	}
	e := &Epidemic{
		common:   c,
		rng:      node.Kernel().NewStream(fmt.Sprintf("epidemic-%d", node.Addr())),
		buffer:   make(map[bufferKey]bufferedMsg),
		contacts: make(map[vnet.Addr]sim.Time),
	}
	if e.scan, err = node.Kernel().Every(flushMinGap, e.scanContacts); err != nil {
		return nil, err
	}
	node.Handle(epidemicKind, e.onMessage)
	return e, nil
}

// Name implements Router.
func (e *Epidemic) Name() string { return "epidemic" }

// Stop implements Router.
func (e *Epidemic) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.scan.Stop()
	e.node.Handle(epidemicKind, nil)
}

// Send implements Router.
func (e *Epidemic) Send(dest vnet.Addr, size int, data any) error {
	if e.stopped {
		return fmt.Errorf("routing: router stopped")
	}
	if dest == e.node.Addr() {
		return fmt.Errorf("routing: cannot send to self")
	}
	msg := e.node.NewMessage(dest, epidemicKind, size, epidemicTTL, Packet{Data: data})
	e.stats.Originated.Inc()
	e.node.Seen(msg)
	e.store(msg)
	e.transmit(msg, 0)
	return nil
}

func (e *Epidemic) store(msg vnet.Message) {
	if len(e.buffer) >= epidemicBuffer {
		// Evict the entry closest to expiry; break timestamp ties by key
		// so eviction never depends on map iteration order.
		var oldest bufferKey
		var oldestAt sim.Time
		first := true
		for k, b := range e.buffer {
			if first || b.expires < oldestAt || b.expires == oldestAt && keyOrder(k, oldest) < 0 {
				oldest, oldestAt, first = k, b.expires, false
			}
		}
		delete(e.buffer, oldest)
	}
	e.buffer[bufferKey{msg.Origin, msg.Seq}] = bufferedMsg{
		msg:     msg,
		expires: e.node.Kernel().Now() + epidemicLifetime,
	}
}

// transmit broadcasts a copy after an optional desynchronization delay.
func (e *Epidemic) transmit(msg vnet.Message, delay sim.Time) {
	send := func() {
		if e.stopped {
			return
		}
		e.stats.Transmissions.Inc()
		e.node.BroadcastLocal(msg)
	}
	if delay == 0 {
		send()
		return
	}
	e.node.Kernel().After(delay, send)
}

func (e *Epidemic) onMessage(msg vnet.Message, _ vnet.Addr) {
	if e.stopped {
		return
	}
	if e.node.Seen(msg) {
		if msg.Dest == e.node.Addr() {
			e.stats.DupDelivered.Inc()
		}
		return
	}
	if msg.Dest == e.node.Addr() {
		e.arrived(msg, epidemicTTL-msg.TTL)
		return
	}
	msg.TTL--
	if msg.TTL <= 0 {
		e.stats.Dropped.Inc()
		return
	}
	e.store(msg)
	// Immediate forward wave with a randomized delay that desynchronizes
	// simultaneous rebroadcasts.
	e.transmit(msg, sim.Time(e.rng.Int63n(int64(20*time.Millisecond))))
}

// scanContacts reads the neighbour table every flushMinGap and, when it
// finds a new contact, re-offers the buffer — the store–carry–forward
// exchange that bridges network partitions.
func (e *Epidemic) scanContacts() {
	now := e.node.Kernel().Now()
	met := false
	for _, r := range e.node.Rows() {
		last, known := e.contacts[r.Beacon.From]
		met = met || !known || r.LastSeen-last >= contactWindow
		e.contacts[r.Beacon.From] = r.LastSeen
	}
	maps.DeleteFunc(e.contacts, func(_ vnet.Addr, last sim.Time) bool { return now-last >= contactWindow })
	if !met {
		return
	}
	// Drop expired copies, re-offer the rest in canonical order (map
	// iteration must not leak into transmission order).
	maps.DeleteFunc(e.buffer, func(_ bufferKey, b bufferedMsg) bool { return now > b.expires })
	keys := make([]bufferKey, 0, len(e.buffer))
	for k := range e.buffer {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, keyOrder)
	for i, k := range keys {
		e.transmit(e.buffer[k].msg, sim.Time(e.rng.Int63n(int64(50*time.Millisecond)))+sim.Time(i)*time.Millisecond)
	}
}

var _ Router = (*Epidemic)(nil)
