package store

import (
	"fmt"
	"slices"

	"vcloud/internal/vnet"
)

// frag is one erasure-code fragment held by a member: shard index, the
// version it belongs to and that version's sizes. The sizes ride on
// the fragment, not the object, because a read served below the newest
// write must reassemble and price the version it serves.
//
// data is the shard; obj is the written object itself when data is a
// window of it (Encode aliases whole data shards), nil for parity, a
// copied ragged shard and anything a rebuild or a repair produced. Both
// are nil for modeled-size objects and for every fragment below the
// object's acked version (see release).
type frag struct {
	version Version
	index   int
	size    int // modeled object bytes
	length  int // exact payload length for Join (when Data was given)
	data    []byte
	obj     []byte
}

// holder is one row of an object's fragment table: a member and the
// fragments it holds (one per version it took part in; more when the
// fleet is smaller than K+M).
type holder struct {
	addr  vnet.Addr
	frags []frag
}

// ecobj is the coordinator's record of one erasure-coded object.
type ecobj struct {
	version Version
	acked   Version // highest version that reached FragAck members
	epoch   uint64
	// holders is the fragment table: one row per member holding at least
	// one fragment, ascending by address, so every sweep over it runs in
	// the deterministic order by construction.
	holders []holder
}

// find returns the table position of a: the index of its row when
// present, else the index a new row must be inserted at to keep the
// table sorted.
//
//vcloudlint:hotpath per placed fragment, per repair candidate and per departing member of every key
func (o *ecobj) find(a vnet.Addr) (int, bool) {
	lo, hi := 0, len(o.holders)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.holders[mid].addr < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.holders) && o.holders[lo].addr == a
}

// tally counts the distinct fragment indices seen of one version.
type tally struct {
	version      Version
	size, length int       // the version's sizes, from its first fragment seen
	n            int       // distinct indices
	seen         [4]uint64 // bit i set: index i seen (K+M <= 255)
}

func (t *tally) has(index int) bool { return t.seen[index>>6]&(1<<(index&63)) != 0 }

// add counts index unless it was seen before.
func (t *tally) add(index int) {
	if !t.has(index) {
		t.seen[index>>6] |= 1 << (index & 63)
		t.n++
	}
}

// release drops the shard bytes of every fragment below the acked
// version: the store refuses to serve below acked, so no read can
// return them, and an aliased data fragment would otherwise pin its
// whole object for as long as its member is skipped by later writes.
// The fragment keeps its row, version, index and sizes — all that
// placement, bestVersion, Holders, Durable and Repair's counters read.
// acked never decreases, so released bytes are never wanted back.
func (o *ecobj) release() {
	for _, h := range o.holders {
		for i := range h.frags {
			if f := &h.frags[i]; f.version < o.acked {
				f.data, f.obj = nil, nil
			}
		}
	}
}

// ErasureCoded is the (K, M) Reed–Solomon backend: each object becomes
// K data + M parity fragments spread over distinct members,
// dwell-weighted so long-staying vehicles attract fragments first. Any
// K distinct fragment indices reconstruct, so reads parallelize (the
// latency is the K'th smallest member RTT at fragment size) and an
// acked write survives up to M member losses at (K+M)/K overhead.
type ErasureCoded struct {
	cfg   Config
	view  View
	stats *Stats

	objects   map[Key]*ecobj
	sess      sessions
	highWater uint64
	load      map[vnet.Addr]int

	rankScratch  []rankEntry
	keyScratch   []Key
	liveScratch  []holder
	rttScratch   []float64
	shardScratch [][]byte // K+M slots, all nil between reads
}

// NewErasureCoded creates the erasure-coded backend over the view.
func NewErasureCoded(cfg Config, view View, stats *Stats) (*ErasureCoded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if view == nil {
		return nil, fmt.Errorf("store: view must not be nil")
	}
	if stats == nil {
		return nil, fmt.Errorf("store: stats must not be nil")
	}
	return &ErasureCoded{
		cfg:     cfg,
		view:    view,
		stats:   stats,
		objects: make(map[Key]*ecobj),
		sess:    make(sessions),
		load:    make(map[vnet.Addr]int),

		shardScratch: make([][]byte, cfg.K+cfg.M),
	}, nil
}

// View implements Backend.
func (e *ErasureCoded) View() View { return e.view }

// Stats implements Backend.
func (e *ErasureCoded) Stats() *Stats { return e.stats }

// fragSize is the modeled byte size of one fragment of a size-byte object.
func (e *ErasureCoded) fragSize(size int) int {
	return (size + e.cfg.K - 1) / e.cfg.K
}

// accept fences against the global high-water, like Replicated.Accept.
func (e *ErasureCoded) accept(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	if epoch < e.highWater {
		e.stats.StaleWrites.Inc()
		return false
	}
	e.highWater = epoch
	return true
}

func (e *ErasureCoded) acceptKey(o *ecobj, epoch uint64, read bool) bool {
	if e.cfg.Consistency != Linearizable || epoch == 0 {
		return true
	}
	if epoch < o.epoch {
		if read {
			e.stats.StaleReads.Inc()
		} else {
			e.stats.StaleWrites.Inc()
		}
		return false
	}
	o.epoch = epoch
	return true
}

// hold returns a's row of o's table, opening one at its sorted position
// (and counting the key against a's load) when a holds nothing of o yet.
// The pointer is valid until the table next changes.
func (e *ErasureCoded) hold(o *ecobj, a vnet.Addr) *holder {
	i, ok := o.find(a)
	if !ok {
		o.holders = append(o.holders, holder{})
		copy(o.holders[i+1:], o.holders[i:])
		o.holders[i] = holder{addr: a}
		e.load[a]++
	}
	return &o.holders[i]
}

// drop closes row i of o's table in place and undoes hold's load count.
// slices.Delete clears the vacated tail slot, so the dropped fragments'
// shard bytes are not pinned.
func (e *ErasureCoded) drop(o *ecobj, i int) {
	if a := o.holders[i].addr; e.load[a] > 0 {
		e.load[a]--
	}
	o.holders = slices.Delete(o.holders, i, i+1)
}

// online copies o's rows whose member is reachable right now into shared
// scratch, in table order: the one Online sweep a read or a repair makes
// per object. The result is valid until the next call.
func (e *ErasureCoded) online(o *ecobj) []holder {
	live := e.liveScratch[:0]
	for _, h := range o.holders {
		if e.view.Online(h.addr) {
			live = append(live, h)
		}
	}
	e.liveScratch = live
	return live
}

// bestVersion returns the tally of the highest version with at least K
// distinct fragment indices among the rows (the zero tally when there
// is none). Each pass tallies the highest version below the ceiling;
// the newest version present nearly always reconstructs, so one pass
// over the fragments is the norm however many stale versions linger.
//
//vcloudlint:hotpath every read, every Durable audit and every key of every repair pass
func (e *ErasureCoded) bestVersion(rows []holder) tally {
	ceiling := ^Version(0)
	for {
		var t tally
		for _, h := range rows {
			for i := range h.frags {
				f := &h.frags[i]
				if f.version >= ceiling || f.version < t.version {
					continue
				}
				if f.version > t.version {
					t = tally{version: f.version, size: f.size, length: f.length}
				}
				t.add(f.index)
			}
		}
		if t.n >= e.cfg.K || t.version == 0 {
			return t
		}
		ceiling = t.version
	}
}

// Write implements Backend: encode into K+M fragments, assign fragment
// i to the i%len(ranked)'th dwell-ranked online member (so with enough
// members each holds at most one fragment and short-dwell vehicles
// hold none), ack at FragAck placements. The fragments alias req.Data
// (see WriteReq.Data); an acked write to a strict store releases the
// bytes of every older version of the key.
func (e *ErasureCoded) Write(req WriteReq) WriteAck {
	e.stats.Writes.Inc()
	if !e.accept(req.Epoch) {
		return WriteAck{}
	}
	o := e.objects[req.Key]
	if o == nil {
		o = &ecobj{}
		e.objects[req.Key] = o
	}
	if !e.acceptKey(o, req.Epoch, false) {
		return WriteAck{}
	}
	size := req.Size
	if size == 0 {
		size = len(req.Data)
	}
	o.version++
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
	e.stats.BytesMoved.Add(total * e.fragSize(size))
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
			f := frag{version: o.version, index: i, size: size, length: len(req.Data)}
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
	ack := WriteAck{Version: o.version, Placed: placed, Acked: len(placed) >= e.cfg.FragAck}
	if ack.Acked {
		o.acked = o.version
		o.release()
		e.stats.WriteAcks.Inc()
		e.sess.advance(req.Client, req.Key, o.version)
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
	e.stats.Reads.Inc()
	o := e.objects[req.Key]
	if o == nil {
		return ReadResult{}, false
	}
	if !e.acceptKey(o, req.Epoch, true) {
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
	if e.cfg.Consistency >= Session && best.version < e.sess.watermark(req.Client, req.Key) {
		e.stats.SessionStale.Inc()
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
	e.stats.ReadsOK.Inc()
	e.sess.advance(req.Client, req.Key, best.version)
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
		var live []holder
		if e.cfg.RetainOffline {
			live = e.online(o)
		} else {
			// Departure model: an offline holder's fragments are gone, so
			// every row that stays is live. Placement below only starts once
			// the reads of live are done.
			for i := len(o.holders) - 1; i >= 0; i-- {
				if !e.view.Online(o.holders[i].addr) {
					e.drop(o, i)
				}
			}
			live = o.holders
		}
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

// Forget implements Backend.
func (e *ErasureCoded) Forget(a vnet.Addr) int {
	dropped := 0
	for _, k := range e.sortedKeys() {
		o := e.objects[k]
		if i, has := o.find(a); has {
			dropped += len(o.holders[i].frags)
			e.drop(o, i)
		}
	}
	return dropped
}

// Holders implements Backend.
func (e *ErasureCoded) Holders(k Key) []vnet.Addr {
	o := e.objects[k]
	if o == nil {
		return nil
	}
	hs := make([]vnet.Addr, len(o.holders))
	for i, h := range o.holders {
		hs[i] = h.addr
	}
	return hs
}

// Durable implements Backend: the best version reconstructible from
// all surviving fragments, reachable or not.
func (e *ErasureCoded) Durable(k Key) (Version, bool) {
	o := e.objects[k]
	if o == nil {
		return 0, false
	}
	best := e.bestVersion(o.holders).version
	return best, best != 0
}

func (e *ErasureCoded) sortedKeys() []Key {
	ks := e.keyScratch[:0]
	for k := range e.objects {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	e.keyScratch = ks
	return ks
}
