package store

import (
	"slices"

	"vcloud/internal/vnet"
)

// Replicated is the whole-object quorum backend: N copies per key,
// writes acked at W placements, reads served from R replies, W+R > N.
// It runs at the coordinator (the controller) and tracks placements;
// byte movement is charged as counters, like the task subsystem. A copy
// is the single fragment of its member's row in the shared holder
// table; its data is the writer's own slice (WriteReq.Data), shared by
// every copy of the version and returned by Read.
type Replicated struct {
	core
	placeScratch []vnet.Addr
}

// NewReplicated creates the quorum backend over the view.
func NewReplicated(cfg Config, view View, stats *Stats) (*Replicated, error) {
	c, err := newCore(cfg, view, stats)
	if err != nil {
		return nil, err
	}
	c.need = 1
	return &Replicated{core: c}, nil
}

// holdsAny reports whether a holds a copy of o.
func holdsAny(o *object) func(vnet.Addr) bool {
	return func(a vnet.Addr) bool { _, has := o.find(a); return has }
}

// Write implements Backend: version++, place on up to N ranked online
// members (current online holders first, so placement is sticky), ack
// at W placements.
func (r *Replicated) Write(req WriteReq) WriteAck {
	o, ok := r.admitWrite(req)
	if !ok {
		return WriteAck{}
	}
	placed := r.placeScratch[:0]
	// Sticky placement: online members already holding the key first.
	for _, h := range o.holders {
		if len(placed) >= r.cfg.N {
			break
		}
		if r.view.Online(h.addr) {
			placed = append(placed, h.addr)
		}
	}
	if len(placed) < r.cfg.N {
		// Every online holder is placed by now, so the ranking only has
		// to skip members that hold the key.
		for _, e := range rankOnline(&r.rankScratch, r.view, r.load, holdsAny(o)) {
			if len(placed) >= r.cfg.N {
				break
			}
			placed = append(placed, e.addr)
		}
	}
	r.placeScratch = placed
	for _, a := range placed {
		h := r.hold(o, a)
		h.frags = append(h.frags[:0], frag{version: o.version, data: req.Data})
		r.stats.BytesMoved.Add(o.size)
	}
	out := slices.Clone(placed)
	slices.Sort(out)
	o.placed = append(o.placed[:0], out...)
	return r.ack(req, o, out, r.cfg.W)
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
	o, ok := r.admitRead(req)
	if !ok {
		return ReadResult{}, false
	}
	best := Version(0)
	var data []byte
	rtts := r.rttScratch[:0]
	for _, h := range r.online(o) {
		if cp := h.frags[0]; cp.version > best {
			best, data = cp.version, cp.data
		}
		rtts = append(rtts, r.cfg.RTT(h.addr, o.size))
	}
	r.rttScratch = rtts
	if len(rtts) < r.cfg.R {
		return ReadResult{}, false
	}
	quorum := 0
	for _, a := range o.placed {
		if _, has := o.find(a); has && r.view.Online(a) {
			quorum++
		}
	}
	if quorum < r.cfg.R {
		r.stats.QuorumStale.Inc()
		return ReadResult{}, false
	}
	if !r.serve(req, best) {
		return ReadResult{}, false
	}
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
	if !r.accept(req.Epoch) {
		return 0
	}
	created := 0
	for _, k := range r.sortedKeys() {
		o := r.objects[k]
		live := r.survivors(o)
		best := r.bestVersion(live).version
		if best == 0 {
			continue // nothing reachable to copy from
		}
		if n := len(live); n < r.cfg.N {
			var src []byte
			for _, h := range live {
				if h.frags[0].version == best {
					src = h.frags[0].data
					break
				}
			}
			for _, e := range rankOnline(&r.rankScratch, r.view, r.load, holdsAny(o)) {
				if n >= r.cfg.N {
					break
				}
				h := r.hold(o, e.addr)
				h.frags = append(h.frags, frag{version: best, data: src})
				n++
				created++
				r.stats.ReReplicas.Inc()
				r.stats.BytesMoved.Add(o.size)
			}
		}
		// Re-anchor the quorum set on the repaired copies — but only when
		// that cannot lose an acked write: if every surviving copy of the
		// last acked version is unreachable, the old placed set stands and
		// reads keep refusing until one of its holders returns.
		if best >= o.acked {
			r.rebuildPlaced(o, best)
		}
	}
	return created
}

// rebuildPlaced resets the key's quorum set after repair to the holders
// of version v (>= the acked version): online holders first, then
// offline members of the old placed set still holding v (a returning
// sleeper should keep counting toward read quorums), capped at N,
// ascending.
func (r *Replicated) rebuildPlaced(o *object, v Version) {
	np := make([]vnet.Addr, 0, r.cfg.N)
	for pass := 0; pass < 2; pass++ {
		for _, h := range o.holders {
			if len(np) >= r.cfg.N {
				break
			}
			if h.frags[0].version != v {
				continue
			}
			on := r.view.Online(h.addr)
			if pass == 0 && on {
				np = append(np, h.addr)
			}
			if pass == 1 && !on && slices.Contains(o.placed, h.addr) && !slices.Contains(np, h.addr) {
				np = append(np, h.addr)
			}
		}
	}
	slices.Sort(np)
	o.placed = np
}
