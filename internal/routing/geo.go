package routing

import (
	"fmt"
	"math"
	"time"

	"vcloud/internal/cluster"
	"vcloud/internal/geo"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

const (
	greedyKind = "route.greedy"
	mozoKind   = "route.mozo"
	// geoTTL bounds hop counts for geographic forwarding.
	geoTTL = 32
	// carryTimeout is how long a packet may wait in the carry buffer for
	// a forwarding opportunity before being dropped.
	carryTimeout = 15 * time.Second
	// carryRetry is the buffer re-scan interval.
	carryRetry = 500 * time.Millisecond
)

// GeoConfig tunes the geographic routers.
type GeoConfig struct {
	// Loc resolves destination positions at origination (typically a
	// StaleLoc standing in for a distributed location service).
	Loc LocService
	// ZoneLoc is what MoZo heads refresh stamps from — the moving-zone
	// membership knowledge, which is kept fresh by intra-zone beaconing.
	// Defaults to Loc (no advantage) when nil.
	ZoneLoc LocService
	// CarryTimeout overrides the default 15 s carry buffer deadline.
	CarryTimeout sim.Time
}

// Greedy is plain greedy geographic forwarding with carry-and-forward.
type Greedy struct {
	common
	cfg     GeoConfig
	kind    string
	buffer  []carried
	ticker  *sim.Ticker
	stopped bool

	// zone support (nil for plain greedy): set by MoZo.
	clusterState func() cluster.State
	refreshLoc   bool
}

type carried struct {
	msg      vnet.Message
	deadline sim.Time
}

// NewGreedy creates a greedy geographic router on node.
func NewGreedy(node *vnet.Node, stats *Stats, cfg GeoConfig, deliver DeliverFunc) (*Greedy, error) {
	return newGeoRouter(node, stats, cfg, deliver, greedyKind, nil, false)
}

// NewMoZo creates a moving-zone router on node. clusterState must report
// the node's live cluster assignment (from a cluster.Runner); heads
// refresh destination position stamps, and next-hop selection prefers
// same-direction neighbors.
func NewMoZo(node *vnet.Node, stats *Stats, cfg GeoConfig, clusterState func() cluster.State, deliver DeliverFunc) (*Greedy, error) {
	if clusterState == nil {
		return nil, fmt.Errorf("routing: MoZo requires a cluster state source")
	}
	return newGeoRouter(node, stats, cfg, deliver, mozoKind, clusterState, true)
}

func newGeoRouter(node *vnet.Node, stats *Stats, cfg GeoConfig, deliver DeliverFunc, kind string, cs func() cluster.State, refresh bool) (*Greedy, error) {
	c, err := newCommon(node, stats, deliver)
	if err != nil {
		return nil, err
	}
	if cfg.Loc == nil {
		return nil, fmt.Errorf("routing: GeoConfig.Loc must not be nil")
	}
	if cfg.CarryTimeout <= 0 {
		cfg.CarryTimeout = carryTimeout
	}
	if cfg.ZoneLoc == nil {
		cfg.ZoneLoc = cfg.Loc
	}
	g := &Greedy{common: c, cfg: cfg, kind: kind, clusterState: cs, refreshLoc: refresh}
	node.Handle(kind, g.onMessage)
	t, err := node.Kernel().Every(carryRetry, g.drainBuffer)
	if err != nil {
		return nil, err
	}
	g.ticker = t
	return g, nil
}

// Name implements Router.
func (g *Greedy) Name() string {
	if g.kind == mozoKind {
		return "mozo"
	}
	return "greedy"
}

// Stop implements Router.
func (g *Greedy) Stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	g.ticker.Stop()
	g.node.Handle(g.kind, nil)
}

// Send implements Router.
func (g *Greedy) Send(dest vnet.Addr, size int, data any) error {
	if g.stopped {
		return fmt.Errorf("routing: router stopped")
	}
	if dest == g.node.Addr() {
		return fmt.Errorf("routing: cannot send to self")
	}
	pos, ok := g.cfg.Loc.Lookup(dest)
	if !ok {
		return fmt.Errorf("routing: no location for destination %d", dest)
	}
	msg := g.node.NewMessage(dest, g.kind, size, geoTTL, Packet{DestPos: pos, Data: data})
	g.stats.Originated.Inc()
	g.route(msg)
	return nil
}

func (g *Greedy) onMessage(msg vnet.Message, _ vnet.Addr) {
	if g.stopped {
		return
	}
	if msg.Dest == g.node.Addr() {
		if g.node.Seen(msg) {
			g.stats.DupDelivered.Inc()
			return
		}
		g.arrived(msg, geoTTL-msg.TTL)
		return
	}
	g.route(msg)
}

// route forwards msg toward its stamped destination position, or buffers
// it when no neighbor makes progress.
func (g *Greedy) route(msg vnet.Message) {
	if g.refreshLoc && g.isHead() {
		// Zone assist: the head refreshes the destination stamp from zone
		// knowledge before forwarding.
		if pos, ok := g.cfg.ZoneLoc.Lookup(msg.Dest); ok {
			pkt, _ := msg.Payload.(Packet)
			pkt.DestPos = pos
			msg.Payload = pkt
		}
	}
	next, ok := g.nextHop(msg)
	if !ok {
		g.buffer = append(g.buffer, carried{
			msg:      msg,
			deadline: g.node.Kernel().Now() + g.cfg.CarryTimeout,
		})
		return
	}
	g.stats.Transmissions.Inc()
	if !g.node.Forward(next, msg) {
		g.stats.Dropped.Inc()
	}
}

func (g *Greedy) isHead() bool {
	return g.clusterState != nil && g.clusterState().Role == cluster.Head
}

// nextHop picks the forwarding target: the destination itself when it is
// a live neighbor; otherwise the neighbor strictly closest to the stamped
// destination (MoZo additionally prefers same-direction neighbors and
// falls back to its cluster head for fresher zone knowledge).
func (g *Greedy) nextHop(msg vnet.Message) (vnet.Addr, bool) {
	pkt, _ := msg.Payload.(Packet)
	self := g.node.Position()
	myDist := self.Dist(pkt.DestPos)
	// Only forward over links inside the reliable reception radius (with
	// a stale-beacon margin): fade-zone links lose most frames even with
	// ARQ, so choosing the geographically farthest neighbor blindly is a
	// net loss.
	maxLink := g.node.Medium().Params().RangeReliable * 1.2

	best := vnet.Addr(-1)
	bestDist := myDist
	myHeading := g.node.Heading()
	for _, row := range g.node.Rows() {
		nb := row.Beacon
		if self.Dist(nb.Pos) > maxLink {
			continue
		}
		if nb.From == msg.Dest {
			return nb.From, true
		}
		d := nb.Pos.Dist(pkt.DestPos)
		if d >= myDist {
			continue
		}
		if g.kind == mozoKind {
			// Zone continuity: same-direction neighbors get a fixed
			// effective-distance bonus — their links live longer, so a
			// slightly shorter geographic step is worth it, but a hard
			// preference would sacrifice too much progress per hop.
			if geo.AngleDiff(myHeading, nb.Heading) < math.Pi/2 {
				d -= 40
			}
		}
		if d < bestDist {
			best, bestDist = nb.From, d
		}
	}
	if best >= 0 {
		return best, true
	}
	// MoZo: a member with no progress hands the packet to its head, which
	// has fresher zone knowledge — but only if the head is a live
	// neighbor and not where the packet just came from.
	if g.clusterState != nil {
		st := g.clusterState()
		if st.Role == cluster.Member && st.Head >= 0 && st.Head != g.node.Addr() {
			if _, ok := g.node.Neighbor(st.Head); ok && !g.node.Seen(seenTag(msg, g.node.Addr())) {
				return st.Head, true
			}
		}
	}
	return -1, false
}

// seenTag derives a pseudo-message key marking "this node already escalated
// this packet to its head once", preventing member→head→member loops.
func seenTag(msg vnet.Message, at vnet.Addr) vnet.Message {
	return vnet.Message{Origin: msg.Origin ^ (at << 8), Seq: msg.Seq | 1<<31}
}

// drainBuffer retries carried packets and drops expired ones.
func (g *Greedy) drainBuffer() {
	if g.stopped || len(g.buffer) == 0 {
		return
	}
	now := g.node.Kernel().Now()
	keep := g.buffer[:0]
	for _, c := range g.buffer {
		if now > c.deadline {
			g.stats.Dropped.Inc()
			continue
		}
		if next, ok := g.nextHop(c.msg); ok {
			g.stats.Transmissions.Inc()
			if !g.node.Forward(next, c.msg) {
				g.stats.Dropped.Inc()
			}
			continue
		}
		keep = append(keep, c)
	}
	g.buffer = keep
}

// BufferLen reports how many packets are waiting for a forwarding
// opportunity (exposed for tests and experiments).
func (g *Greedy) BufferLen() int { return len(g.buffer) }

var _ Router = (*Greedy)(nil)
