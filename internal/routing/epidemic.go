package routing

import (
	"fmt"
	"math/rand"
	"sort"
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
	// contactWindow: a beacon from a node not heard within this window
	// counts as a new contact and triggers a buffer exchange.
	contactWindow = 10 * time.Second
	// flushMinGap rate-limits buffer flushes.
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
	// contacts tracks when each neighbor was last heard, to detect new
	// encounters.
	contacts  map[vnet.Addr]sim.Time
	lastFlush sim.Time
	stopped   bool
}

type bufferKey struct {
	origin vnet.Addr
	seq    uint32
}

type bufferedMsg struct {
	msg     vnet.Message
	expires sim.Time
}

// NewEpidemic creates an epidemic router on node. The node must beacon
// (scenario default) for contact detection to trigger exchanges.
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
	node.Handle(epidemicKind, e.onMessage)
	node.OnBeacon(e.onBeacon)
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
		var oldestAt sim.Time = 1 << 62
		first := true
		for k, b := range e.buffer {
			switch {
			case first || b.expires < oldestAt:
				oldest, oldestAt, first = k, b.expires, false
			case b.expires == oldestAt:
				if k.origin < oldest.origin || (k.origin == oldest.origin && k.seq < oldest.seq) {
					oldest = k
				}
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

// onBeacon detects new contacts and re-offers the buffer — the
// store–carry–forward exchange that bridges network partitions.
func (e *Epidemic) onBeacon(b vnet.Beacon) {
	if e.stopped {
		return
	}
	now := e.node.Kernel().Now()
	last, known := e.contacts[b.From]
	e.contacts[b.From] = now
	if known && now-last < contactWindow {
		return // ongoing contact, not a new encounter
	}
	if now-e.lastFlush < flushMinGap {
		return
	}
	e.lastFlush = now
	// Drop expired copies, re-offer the rest in canonical order (map
	// iteration must not leak into transmission order).
	keys := make([]bufferKey, 0, len(e.buffer))
	for k, buf := range e.buffer {
		if now > buf.expires {
			delete(e.buffer, k)
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].seq < keys[j].seq
	})
	for i, k := range keys {
		e.transmit(e.buffer[k].msg, sim.Time(e.rng.Int63n(int64(50*time.Millisecond)))+sim.Time(i)*time.Millisecond)
	}
}

var _ Router = (*Epidemic)(nil)
