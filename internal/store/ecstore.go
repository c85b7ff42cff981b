package store

import (
	"slices"

	"vcloud/internal/vnet"
)

// ErasureCoded is the (K, M) Reed–Solomon backend: each object becomes
// K data + M parity fragments spread over distinct members,
// dwell-weighted so long-staying vehicles attract fragments first. Any
// K distinct fragment indices reconstruct, so reads parallelize (the
// latency is the K'th smallest member RTT at fragment size) and an
// acked write survives up to M member losses at (K+M)/K overhead.
type ErasureCoded struct {
	core
	shardScratch [][]byte // K+M slots, all nil between reads
}

// NewErasureCoded creates the erasure-coded backend over the view.
func NewErasureCoded(cfg Config, view View, stats *Stats) (*ErasureCoded, error) {
	c, err := newCore(cfg, view, stats)
	if err != nil {
		return nil, err
	}
	c.need = c.cfg.K
	return &ErasureCoded{core: c, shardScratch: make([][]byte, c.cfg.K+c.cfg.M)}, nil
}

// fragSize is the modeled byte size of one fragment of a size-byte object.
func (e *ErasureCoded) fragSize(size int) int {
	return (size + e.cfg.K - 1) / e.cfg.K
}

// release drops the shard bytes of every erasure-code fragment below
// the acked version (Replicated keeps its stale copies' bytes): the
// store refuses to serve below acked, so no read can return them, and an
// aliased data fragment would otherwise pin its whole object for as long
// as its member is skipped by later writes.
// The fragment keeps its row, version, index and sizes — all that
// placement, bestVersion, Holders, Durable and Repair's counters read.
// acked never decreases, so released bytes are never wanted back.
func (o *object) release() {
	for _, h := range o.holders {
		for i := range h.frags {
			if f := &h.frags[i]; f.version < o.acked {
				f.data, f.obj = nil, nil
			}
		}
	}
}

// Write implements Backend: encode into K+M fragments, assign fragment
// i to the i%len(ranked)'th dwell-ranked online member (so with enough
// members each holds at most one fragment and short-dwell vehicles
// hold none), ack at FragAck placements. The fragments alias req.Data
// (see WriteReq.Data); an acked write to a strict store releases the
// bytes of every older version of the key.
func (e *ErasureCoded) Write(req WriteReq) WriteAck {
	o, ok := e.admitWrite(req)
	if !ok {
		return WriteAck{}
	}
	var shards [][]byte
	whole := 0 // data shards that are windows of req.Data
	if req.Data != nil {
		var err error
		shards, err = Encode(e.cfg.K, e.cfg.M, req.Data)
		if err != nil {
			// cfg.Validate bounds K and M; unreachable in practice.
			return WriteAck{}
		}
		whole = windows(e.cfg.K, len(req.Data))
	}
	ranked := rankOnline(&e.rankScratch, e.view, e.load, nil)
	if len(ranked) == 0 {
		return WriteAck{Version: o.version}
	}
	total := e.cfg.K + e.cfg.M
	e.stats.BytesMoved.Add(total * e.fragSize(o.size))
	placed := make([]vnet.Addr, min(total, len(ranked)))
	for j := range placed {
		placed[j] = ranked[j].addr
		h := e.hold(o, placed[j])
		// Replace the member's stale fragments, but keep its fragments of
		// the last acked version: until the new write reaches its own
		// quorum, destroying them could drop the acked version below K
		// surviving fragments — an acknowledged write must never lose
		// durability to an unacknowledged overwrite.
		h.frags = slices.DeleteFunc(h.frags, func(f frag) bool { return f.version != o.acked })
		// Round-robin over the dwell ranking: distinct members hold
		// disjoint index sets, and with enough members each holds one.
		for i := j; i < total; i += len(ranked) {
			f := frag{version: o.version, index: i, size: o.size, length: len(req.Data)}
			if shards != nil {
				f.data = shards[i]
				if i < whole {
					f.obj = req.Data
				}
			}
			h.frags = append(h.frags, f)
		}
	}
	slices.Sort(placed)
	ack := e.ack(req, o, placed, e.cfg.FragAck)
	if ack.Acked {
		o.release()
	}
	return ack
}

// Read implements Backend: the best version with at least K distinct
// fragment indices on online members is served; latency is the K'th
// smallest RTT at fragment size among its contributors (fragments
// transfer in parallel — the erasure-coding read advantage). When all K
// data fragments of that version are live as the writer's own windows
// the written object is returned as is (see ReadResult.Data); otherwise
// the missing data shards are rebuilt and the object joined afresh.
func (e *ErasureCoded) Read(req ReadReq) (ReadResult, bool) {
	o, ok := e.admitRead(req)
	if !ok {
		return ReadResult{}, false
	}
	live := e.online(o)
	best := e.bestVersion(live)
	if best.version == 0 {
		return ReadResult{}, false
	}
	if best.version < o.acked {
		// The reachable fragments only reconstruct a version older than
		// the last acked write: refuse rather than regress.
		e.stats.QuorumStale.Inc()
		return ReadResult{}, false
	}
	if !e.serve(req, best.version) {
		return ReadResult{}, false
	}
	fsz := e.fragSize(best.size)
	rtts := e.rttScratch[:0]
	var shards [][]byte
	if best.length > 0 {
		shards = e.shardScratch
	}
	var obj []byte
	var intact tally // distinct data indices live as windows of obj
	for _, h := range live {
		contributes := false
		for _, f := range h.frags {
			if f.version != best.version {
				continue
			}
			contributes = true
			if shards != nil && f.data != nil {
				shards[f.index] = f.data
				if f.obj != nil {
					obj = f.obj
					intact.add(f.index)
				}
			}
		}
		if contributes {
			rtts = append(rtts, e.cfg.RTT(h.addr, fsz))
		}
	}
	e.rttScratch = rtts
	var data []byte
	if shards != nil {
		if intact.n == e.cfg.K {
			data = obj
		} else if reconstruct(e.cfg.K, shards) == nil {
			data, _ = Join(e.cfg.K, shards, best.length)
		}
		clear(shards) // the scratch must not pin shard bytes
	}
	return ReadResult{
		Data:    data,
		Version: best.version,
		Latency: quantile(rtts, min(e.cfg.K, len(rtts))),
		Replies: len(rtts),
	}, true
}

// Repair implements Backend: for each key (sorted), when the best live
// version is reconstructible but some of its K+M fragment indices have
// no live holder, regenerate the missing fragments and place them on
// ranked live members that hold none of the key.
func (e *ErasureCoded) Repair(req RepairReq) int {
	if !e.accept(req.Epoch) {
		return 0
	}
	created := 0
	total := e.cfg.K + e.cfg.M
	for _, k := range e.sortedKeys() {
		o := e.objects[k]
		live := e.survivors(o)
		best := e.bestVersion(live)
		if best.version == 0 || best.n >= total {
			continue // not reconstructible from live members, or whole
		}
		// Regenerate payload shards when the version carries data.
		var shards [][]byte
		for _, h := range live {
			for _, f := range h.frags {
				if f.version == best.version && f.data != nil {
					if shards == nil {
						shards = make([][]byte, total)
					}
					shards[f.index] = f.data
				}
			}
		}
		if shards != nil && Decode(e.cfg.K, e.cfg.M, shards) != nil {
			shards = nil
		}
		holdsKey := func(a vnet.Addr) bool {
			i, ok := o.find(a)
			return ok && slices.ContainsFunc(o.holders[i].frags, func(f frag) bool { return f.version == best.version })
		}
		ranked := rankOnline(&e.rankScratch, e.view, e.load, holdsKey)
		fsz := e.fragSize(best.size)
		next := 0
		for i := 0; i < total; i++ {
			if best.has(i) {
				continue
			}
			if next >= len(ranked) {
				break // every eligible member already holds the key
			}
			f := frag{version: best.version, index: i, size: best.size, length: best.length}
			if shards != nil {
				f.data = shards[i]
			}
			h := e.hold(o, ranked[next].addr)
			next++
			h.frags = append(h.frags, f)
			created++
			e.stats.ReReplicas.Inc()
			e.stats.BytesMoved.Add(fsz)
		}
	}
	return created
}
