package store

import (
	"fmt"
	"slices"

	"vcloud/internal/vnet"
)

// rcopy is one member's copy of an object. data is the writer's own
// slice (WriteReq.Data), shared by every copy and returned by Read.
type rcopy struct {
	version Version
	data    []byte
}

// robj is the coordinator's record of one replicated object.
type robj struct {
	size    int
	version Version // highest version ever allocated
	acked   Version // highest version that reached its write quorum
	epoch   uint64  // per-key fencing high-water (Linearizable)
	copies  map[vnet.Addr]rcopy
	// placed is the key's current quorum set, ascending: the members the
	// latest write landed on (or repair's rebuild of it). Every member of
	// placed holds a version >= acked, so any R of them prove the last
	// acked write — reads count replies against placed, never
	// against stale ex-holders accumulated across partitions.
	placed []vnet.Addr
}

// Replicated is the whole-object quorum backend: N copies per key,
// writes acked at W placements, reads served from R replies, W+R > N.
// It runs at the coordinator (the controller) and tracks placements;
// byte movement is charged as counters, like the task subsystem.
type Replicated struct {
	cfg   Config
	view  View
	stats *Stats

	objects map[Key]*robj
	sess    sessions
	// highWater is the highest epoch any writer has presented; fenced
	// writes and repairs below it are refused (split-brain protection).
	highWater uint64
	// load counts copies per member, feeding PlaceDwell's tiebreak.
	load map[vnet.Addr]int

	rankScratch   []rankEntry
	keyScratch    []Key
	holderScratch []vnet.Addr
	placeScratch  []vnet.Addr
	rttScratch    []float64
}

// NewReplicated creates the quorum backend over the view.
func NewReplicated(cfg Config, view View, stats *Stats) (*Replicated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if view == nil {
		return nil, fmt.Errorf("store: view must not be nil")
	}
	if stats == nil {
		return nil, fmt.Errorf("store: stats must not be nil")
	}
	return &Replicated{
		cfg:     cfg,
		view:    view,
		stats:   stats,
		objects: make(map[Key]*robj),
		sess:    make(sessions),
		load:    make(map[vnet.Addr]int),
	}, nil
}

// View implements Backend.
func (r *Replicated) View() View { return r.view }

// Stats implements Backend.
func (r *Replicated) Stats() *Stats { return r.stats }

// Accept fences an operation at the given epoch against the global
// high-water: it returns false (counting a stale write) when a higher
// epoch has written since. Epoch zero is the unfenced legacy path.
func (r *Replicated) Accept(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	if epoch < r.highWater {
		r.stats.StaleWrites.Inc()
		return false
	}
	r.highWater = epoch
	return true
}

// acceptKey fences an operation against one key's epoch high-water
// (Linearizable only). Reads also advance the key fence, so a write
// from an epoch older than any served read is refused afterwards.
func (r *Replicated) acceptKey(o *robj, epoch uint64, read bool) bool {
	if r.cfg.Consistency != Linearizable || epoch == 0 {
		return true
	}
	if epoch < o.epoch {
		if read {
			r.stats.StaleReads.Inc()
		} else {
			r.stats.StaleWrites.Inc()
		}
		return false
	}
	o.epoch = epoch
	return true
}

// Write implements Backend: version++, place on up to N ranked online
// members (current online holders first, so placement is sticky), ack
// at W placements.
func (r *Replicated) Write(req WriteReq) WriteAck {
	r.stats.Writes.Inc()
	if !r.Accept(req.Epoch) {
		return WriteAck{}
	}
	o := r.objects[req.Key]
	if o == nil {
		o = &robj{copies: make(map[vnet.Addr]rcopy)}
		r.objects[req.Key] = o
	}
	if !r.acceptKey(o, req.Epoch, false) {
		return WriteAck{}
	}
	size := req.Size
	if size == 0 {
		size = len(req.Data)
	}
	o.size = size
	o.version++
	placed := r.placeScratch[:0]
	// Sticky placement: online members already holding the key first.
	for _, a := range r.holdersOf(o) {
		if len(placed) >= r.cfg.N {
			break
		}
		if r.view.Online(a) {
			placed = append(placed, a)
		}
	}
	if len(placed) < r.cfg.N {
		held := make(map[vnet.Addr]bool, len(o.copies))
		for _, a := range placed {
			held[a] = true
		}
		for _, e := range rankOnline(&r.rankScratch, r.view, r.load, func(a vnet.Addr) bool { return held[a] }) {
			if len(placed) >= r.cfg.N {
				break
			}
			placed = append(placed, e.addr)
		}
	}
	r.placeScratch = placed
	for _, a := range placed {
		if _, had := o.copies[a]; !had {
			r.load[a]++
		}
		o.copies[a] = rcopy{version: o.version, data: req.Data}
		r.stats.BytesMoved.Add(size)
	}
	out := make([]vnet.Addr, len(placed))
	copy(out, placed)
	slices.Sort(out)
	o.placed = append(o.placed[:0], out...)
	ack := WriteAck{Version: o.version, Placed: out, Acked: len(out) >= r.cfg.W}
	if ack.Acked {
		o.acked = o.version
		r.stats.WriteAcks.Inc()
		r.sess.advance(req.Client, req.Key, o.version)
	}
	return ack
}

// Read implements Backend: gather replies from online holders, need R
// of them, serve the highest version seen. Latency is the R'th
// smallest holder RTT at the object size.
//
// The R replies are counted against the key's current placed set only:
// members outside it may hold versions predating the last acked write
// (sticky placement leaves stale copies behind when it cannot reuse an
// unreachable holder), and counting them would let a read quorum miss
// every acked copy.
func (r *Replicated) Read(req ReadReq) (ReadResult, bool) {
	r.stats.Reads.Inc()
	o := r.objects[req.Key]
	if o == nil {
		return ReadResult{}, false
	}
	if !r.acceptKey(o, req.Epoch, true) {
		return ReadResult{}, false
	}
	best := Version(0)
	var data []byte
	rtts := r.rttScratch[:0]
	for _, a := range r.holdersOf(o) {
		if !r.view.Online(a) {
			continue
		}
		cp := o.copies[a]
		if cp.version > best {
			best, data = cp.version, cp.data
		}
		rtts = append(rtts, r.cfg.RTT(a, o.size))
	}
	r.rttScratch = rtts
	if len(rtts) < r.cfg.R {
		return ReadResult{}, false
	}
	quorum := 0
	for _, a := range o.placed {
		if _, has := o.copies[a]; has && r.view.Online(a) {
			quorum++
		}
	}
	if quorum < r.cfg.R {
		r.stats.QuorumStale.Inc()
		return ReadResult{}, false
	}
	if r.cfg.Consistency >= Session && best < r.sess.watermark(req.Client, req.Key) {
		r.stats.SessionStale.Inc()
		return ReadResult{}, false
	}
	r.stats.ReadsOK.Inc()
	r.sess.advance(req.Client, req.Key, best)
	return ReadResult{
		Data:    data,
		Version: best,
		Latency: quantile(rtts, r.cfg.R),
		Replies: len(rtts),
	}, true
}

// Repair implements Backend: for every key (in sorted order), drop
// offline holders (unless RetainOffline), copy the best live version
// onto ranked online members until N live copies exist.
func (r *Replicated) Repair(req RepairReq) int {
	if !r.Accept(req.Epoch) {
		return 0
	}
	created := 0
	for _, k := range r.sortedKeys() {
		o := r.objects[k]
		live := 0
		maxLive := Version(0)
		for _, a := range r.holdersOf(o) {
			if r.view.Online(a) {
				live++
				if cp := o.copies[a]; cp.version > maxLive {
					maxLive = cp.version
				}
			} else if !r.cfg.RetainOffline {
				r.dropCopy(o, a)
			}
		}
		if live == 0 {
			continue // nothing reachable to copy from
		}
		if live < r.cfg.N {
			var src []byte
			for _, a := range r.holdersOf(o) {
				if r.view.Online(a) && o.copies[a].version == maxLive {
					src = o.copies[a].data
					break
				}
			}
			held := o.copies
			for _, e := range rankOnline(&r.rankScratch, r.view, r.load, func(a vnet.Addr) bool { _, has := held[a]; return has }) {
				if live >= r.cfg.N {
					break
				}
				o.copies[e.addr] = rcopy{version: maxLive, data: src}
				r.load[e.addr]++
				live++
				created++
				r.stats.ReReplicas.Inc()
				r.stats.BytesMoved.Add(o.size)
			}
		}
		// Re-anchor the quorum set on the repaired copies — but only when
		// that cannot lose an acked write: if every surviving copy of the
		// last acked version is unreachable, the old placed set stands and
		// reads keep refusing until one of its holders returns.
		if maxLive >= o.acked {
			r.rebuildPlaced(o, maxLive)
		}
	}
	return created
}

// rebuildPlaced resets the key's quorum set after repair to the holders
// of version v (>= the acked version): online holders first, then
// offline members of the old placed set still holding v (a returning
// sleeper should keep counting toward read quorums), capped at N,
// ascending.
func (r *Replicated) rebuildPlaced(o *robj, v Version) {
	np := make([]vnet.Addr, 0, r.cfg.N)
	for pass := 0; pass < 2; pass++ {
		for _, a := range r.holdersOf(o) {
			if len(np) >= r.cfg.N {
				break
			}
			if o.copies[a].version != v {
				continue
			}
			on := r.view.Online(a)
			if pass == 0 && on {
				np = append(np, a)
			}
			if pass == 1 && !on && slices.Contains(o.placed, a) && !slices.Contains(np, a) {
				np = append(np, a)
			}
		}
	}
	slices.Sort(np)
	o.placed = np
}

// Forget implements Backend: the member departed for good, its copies
// are gone.
func (r *Replicated) Forget(a vnet.Addr) int {
	dropped := 0
	for _, k := range r.sortedKeys() {
		o := r.objects[k]
		if _, has := o.copies[a]; has {
			r.dropCopy(o, a)
			dropped++
		}
	}
	return dropped
}

// Holders implements Backend.
func (r *Replicated) Holders(k Key) []vnet.Addr {
	o := r.objects[k]
	if o == nil {
		return nil
	}
	return slices.Clone(r.holdersOf(o))
}

// Durable implements Backend: the best version any surviving copy
// holds, online or not.
func (r *Replicated) Durable(k Key) (Version, bool) {
	o := r.objects[k]
	if o == nil || len(o.copies) == 0 {
		return 0, false
	}
	best := Version(0)
	for _, cp := range o.copies {
		if cp.version > best {
			best = cp.version
		}
	}
	return best, true
}

func (r *Replicated) dropCopy(o *robj, a vnet.Addr) {
	delete(o.copies, a)
	if r.load[a] > 0 {
		r.load[a]--
	}
}

// holdersOf returns o's holder addresses ascending (shared scratch,
// valid until the next call).
func (r *Replicated) holdersOf(o *robj) []vnet.Addr {
	hs := r.holderScratch[:0]
	for a := range o.copies {
		hs = append(hs, a)
	}
	slices.Sort(hs)
	r.holderScratch = hs
	return hs
}

// sortedKeys returns the object keys ascending (shared scratch).
func (r *Replicated) sortedKeys() []Key {
	ks := r.keyScratch[:0]
	for k := range r.objects {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	r.keyScratch = ks
	return ks
}
