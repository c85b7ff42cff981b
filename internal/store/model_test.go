package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vcloud/internal/vnet"
)

// The copying model: the coder and the erasure-coded data path as they
// were before shards aliased the written object — Encode copies every
// shard into its own allocation, every loop over shard bytes is one
// mulAdd per source, a read decodes and joins whatever it serves, and a
// stale fragment keeps its bytes for as long as its row lives. It is the
// oracle TestErasureStoreMatchesCopyingModel holds the store to; nothing
// outside this file uses it.

func modelCombine(dst, coef []byte, srcs [][]byte) {
	for j, c := range coef {
		mulAdd(dst, srcs[j], c)
	}
}

func modelEncode(k, m int, data []byte) [][]byte {
	shardLen := (len(data) + k - 1) / k
	shards := make([][]byte, k+m)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		if i < k {
			copy(shards[i], data[min(i*shardLen, len(data)):])
		}
	}
	for i := 0; i < m; i++ {
		modelCombine(shards[k+i], encodeRow(nil, k, k+i), shards[:k])
	}
	return shards
}

func modelDecode(k, m int, shards [][]byte) error {
	have, shardLen := 0, -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return fmt.Errorf("shard %d has length %d, want %d", i, len(s), shardLen)
		}
		have++
	}
	if have < k {
		return fmt.Errorf("only %d of %d shards survive, need %d", have, k+m, k)
	}
	if slices.ContainsFunc(shards[:k], func(s []byte) bool { return s == nil }) {
		sub, survivors := make([][]byte, 0, k), make([][]byte, 0, k)
		for r, s := range shards {
			if s != nil && len(sub) < k {
				sub = append(sub, encodeRow(nil, k, r))
				survivors = append(survivors, s)
			}
		}
		inv, err := invertMatrix(sub)
		if err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if shards[i] == nil {
				shards[i] = make([]byte, shardLen)
				modelCombine(shards[i], inv[i], survivors)
			}
		}
	}
	for i := 0; i < m; i++ {
		if shards[k+i] == nil {
			shards[k+i] = make([]byte, shardLen)
			modelCombine(shards[k+i], encodeRow(nil, k, k+i), shards[:k])
		}
	}
	return nil
}

// modelEC is an erasure-coded store whose Write and Read are the copying
// ones. Repair, Forget, Holders, Durable and the fragment table are the
// embedded store's own: this change leaves them alone, and they have
// their own oracles in ecstore_test.go.
type modelEC struct{ *ErasureCoded }

func (e modelEC) Write(req WriteReq) WriteAck {
	e.stats.Writes.Inc()
	if !e.accept(req.Epoch) {
		return WriteAck{}
	}
	o := e.objects[req.Key]
	if o == nil {
		o = &object{}
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
	if req.Data != nil {
		shards = modelEncode(e.cfg.K, e.cfg.M, req.Data)
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
		h.frags = slices.DeleteFunc(h.frags, func(f frag) bool { return f.version != o.acked })
		for i := j; i < total; i += len(ranked) {
			f := frag{version: o.version, index: i, size: size, length: len(req.Data)}
			if shards != nil {
				f.data = shards[i]
			}
			h.frags = append(h.frags, f)
		}
	}
	slices.Sort(placed)
	ack := WriteAck{Version: o.version, Placed: placed, Acked: len(placed) >= e.cfg.FragAck}
	if ack.Acked {
		o.acked = o.version
		e.stats.WriteAcks.Inc()
		e.sess.advance(req.Client, req.Key, o.version)
	}
	return ack
}

func (e modelEC) Read(req ReadReq) (ReadResult, bool) {
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
		e.stats.QuorumStale.Inc()
		return ReadResult{}, false
	}
	if e.cfg.Consistency >= Session && best.version < e.sess.watermark(req.Client, req.Key) {
		e.stats.SessionStale.Inc()
		return ReadResult{}, false
	}
	fsz := e.fragSize(best.size)
	var rtts []float64
	var shards [][]byte
	if best.length > 0 {
		shards = make([][]byte, e.cfg.K+e.cfg.M)
	}
	for _, h := range live {
		contributes := false
		for _, f := range h.frags {
			if f.version != best.version {
				continue
			}
			contributes = true
			if shards != nil && f.data != nil {
				shards[f.index] = f.data
			}
		}
		if contributes {
			rtts = append(rtts, e.cfg.RTT(h.addr, fsz))
		}
	}
	var data []byte
	if shards != nil && modelDecode(e.cfg.K, e.cfg.M, shards) == nil {
		data, _ = Join(e.cfg.K, shards, best.length)
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

// checkStrictRelease asserts the invariant release maintains: no
// fragment below its object's acked version holds bytes.
func checkStrictRelease(t *testing.T, e *ErasureCoded, what string) {
	t.Helper()
	for k, o := range e.objects {
		for _, h := range o.holders {
			for _, f := range h.frags {
				if f.version < o.acked && (f.data != nil || f.obj != nil) {
					t.Fatalf("%s: key %s member %d keeps %d bytes of v%d index %d below acked v%d",
						what, k, h.addr, len(f.data), f.version, f.index, o.acked)
				}
			}
		}
	}
	for i, s := range e.shardScratch {
		if s != nil {
			t.Fatalf("%s: shard scratch slot %d still pins %d bytes after the read", what, i, len(s))
		}
	}
}

// TestErasureStoreMatchesCopyingModel drives the store and the copying
// model through the same seeded schedule of writes (payload sizes that
// are empty, shorter than K, ragged and aligned; one in six modeled-size),
// reads, member outages and returns, repairs, departures and audits,
// over every (K, M, FragAck) with K <= 5 and M <= 3, the three
// consistency levels, RetainOffline on and off. Every ack, read result,
// count and the final Stats must be equal, and the release invariant
// must hold after every step.
func TestErasureStoreMatchesCopyingModel(t *testing.T) {
	t.Run("differential", func(t *testing.T) {
		ops := 400
		if testing.Short() {
			ops = 150
		}
		configs := 0
		for k := 1; k <= 5; k++ {
			for m := 0; m <= 3; m++ {
				for ack := m + 1; ack <= k+m; ack++ {
					for c := Eventual; c <= Linearizable; c++ {
						for _, retain := range []bool{false, true} {
							cfg := Config{K: k, M: m, FragAck: ack, Consistency: c, RetainOffline: retain}
							configs++
							runModelDifferential(t, cfg, int64(configs), ops)
						}
					}
				}
			}
		}
	})
	t.Run("stale rows hold no bytes", testStaleRowsHoldNoBytes)
}

func runModelDifferential(t *testing.T, cfg Config, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	view := newTestView(3 + rng.Intn(8)) // fleets below and above K+M
	var gotStats, wantStats Stats
	e, err := NewErasureCoded(cfg, view, &gotStats)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewErasureCoded(cfg, view, &wantStats)
	if err != nil {
		t.Fatal(err)
	}
	model := modelEC{inner}
	what := func(op int, s string) string {
		return fmt.Sprintf("K=%d M=%d FragAck=%d %v retain=%v fleet=%d op %d (%s)",
			cfg.K, cfg.M, cfg.FragAck, cfg.Consistency, cfg.RetainOffline, len(view.members), op, s)
	}
	keys := []Key{"a", "b", "c"}
	clients := []ClientID{"", "x", "y"}
	sizes := []int{0, 1, 5, 64, 257, 1024}
	for op := 0; op < ops; op++ {
		key, client := keys[rng.Intn(len(keys))], clients[rng.Intn(len(clients))]
		member := view.members[rng.Intn(len(view.members))]
		epoch := view.epoch
		if view.epoch > 0 && rng.Intn(8) == 0 {
			epoch-- // a request from a superseded controller
		}
		switch r := rng.Intn(20); {
		case r < 6: // write
			req := WriteReq{Client: client, Key: key, Epoch: epoch}
			if rng.Intn(6) == 0 {
				req.Size = 4 << 10
			} else {
				req.Data = testPayload(sizes[rng.Intn(len(sizes))] + op)[op:] // different bytes every write
			}
			got, want := e.Write(req), model.Write(req)
			if got.Version != want.Version || got.Acked != want.Acked || !slices.Equal(got.Placed, want.Placed) {
				t.Fatalf("%s: ack %+v, model %+v", what(op, "write"), got, want)
			}
		case r < 12: // read
			req := ReadReq{Client: client, Key: key, Epoch: epoch}
			got, gotOK := e.Read(req)
			want, wantOK := model.Read(req)
			if gotOK != wantOK || got.Version != want.Version || got.Latency != want.Latency || got.Replies != want.Replies ||
				(got.Data == nil) != (want.Data == nil) || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s: read ok=%v v%d %d bytes (nil=%v) latency %v replies %d, model ok=%v v%d %d bytes (nil=%v) latency %v replies %d",
					what(op, "read"), gotOK, got.Version, len(got.Data), got.Data == nil, got.Latency, got.Replies,
					wantOK, want.Version, len(want.Data), want.Data == nil, want.Latency, want.Replies)
			}
		case r < 15: // a member goes dark or comes back
			view.offline[member] = !view.offline[member]
		case r < 17: // repair
			req := RepairReq{Epoch: epoch}
			if got, want := e.Repair(req), model.Repair(req); got != want {
				t.Fatalf("%s: created %d, model %d", what(op, "repair"), got, want)
			}
		case r < 18: // the member departs for good (and may return wiped)
			if got, want := e.Forget(member), model.Forget(member); got != want {
				t.Fatalf("%s: dropped %d, model %d", what(op, "forget"), got, want)
			}
		case r < 19: // a new controller takes over
			view.epoch++
		default: // audit
			gv, gok := e.Durable(key)
			wv, wok := model.Durable(key)
			if gv != wv || gok != wok || !slices.Equal(e.Holders(key), model.Holders(key)) {
				t.Fatalf("%s: durable v%d %v holders %v, model v%d %v holders %v",
					what(op, "audit"), gv, gok, e.Holders(key), wv, wok, model.Holders(key))
			}
		}
		checkStrictRelease(t, e, what(op, "invariant"))
	}
	if gotStats != wantStats {
		t.Fatalf("%s: stats %+v, model %+v", what(ops, "end"), gotStats, wantStats)
	}
}

// testStaleRowsHoldNoBytes is the benchmark's shape: a (4, 2) code over
// 60 members, so every write lands on the six least-loaded and acks while
// 54 are skipped, and a key overwritten hundreds of times trails stale
// rows on most of the fleet. The bytes reachable from the fragment tables
// must stay within one object and its parity per key however many rows
// linger.
func testStaleRowsHoldNoBytes(t *testing.T) {
	const (
		nKeys, objBytes = 8, 4 << 10
		perKey          = objBytes + 2*objBytes/4 // the object (its four data windows) + M parity shards
	)
	view := newTestView(60)
	e, err := NewErasureCoded(Config{K: 4, M: 2, RetainOffline: true}, view, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	overwrites := 200
	if testing.Short() {
		overwrites = 60
	}
	for round := 0; round < overwrites; round++ {
		for i := 0; i < nKeys; i++ {
			key := Key(fmt.Sprintf("key-%d", i))
			data := testPayload(objBytes + round)[round:]
			if ack := Put(e, "c", key, data); !ack.Acked {
				t.Fatalf("round %d: write of %s not acked: %+v", round, key, ack)
			}
			if res, ok := Get(e, "c", key); !ok || &res.Data[0] != &data[0] || len(res.Data) != objBytes {
				t.Fatalf("round %d: read of %s ok=%v did not return the written slice", round, key, ok)
			}
		}
		checkStrictRelease(t, e, fmt.Sprintf("round %d", round))
		rows, reachable := 0, 0
		seen := map[*byte]bool{} // one count per backing array, however many fragments share it
		for _, o := range e.objects {
			rows += len(o.holders)
			for _, h := range o.holders {
				for _, f := range h.frags {
					root := f.data
					if f.obj != nil {
						root = f.obj
					}
					if len(root) > 0 && !seen[&root[0]] {
						seen[&root[0]] = true
						reachable += len(root)
					}
				}
			}
		}
		if reachable > nKeys*perKey {
			t.Fatalf("round %d: %d bytes reachable from %d rows, want <= %d (%d keys x %d)", round, reachable, rows, nKeys*perKey, nKeys, perKey)
		}
		if round == overwrites-1 && rows < 4*6*nKeys {
			t.Fatalf("only %d rows linger for %d keys: the schedule no longer leaves stale rows behind", rows, nKeys)
		}
	}
}

// The map model: the whole-copy quorum backend as it was before it moved
// onto the shared holder table — one map of copies per key, re-sorted by
// holdersOf wherever order matters, and its own copy of both epoch
// fences, so FuzzReplicatedMatchesMapModel checks the shared fence
// instead of calling it. Nothing outside this file uses it.

type mapCopy struct {
	version Version
	data    []byte
}

type mapObj struct {
	size    int
	version Version
	acked   Version
	epoch   uint64
	copies  map[vnet.Addr]mapCopy
	placed  []vnet.Addr
}

type mapReplicated struct {
	cfg   Config
	view  View
	stats *Stats

	objects   map[Key]*mapObj
	sess      sessions
	highWater uint64
	load      map[vnet.Addr]int

	rankScratch   []rankEntry
	keyScratch    []Key
	holderScratch []vnet.Addr
	placeScratch  []vnet.Addr
	rttScratch    []float64
}

func newMapReplicated(cfg Config, view View, stats *Stats) (*mapReplicated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &mapReplicated{
		cfg:     cfg,
		view:    view,
		stats:   stats,
		objects: make(map[Key]*mapObj),
		sess:    make(sessions),
		load:    make(map[vnet.Addr]int),
	}, nil
}

func (r *mapReplicated) accept(epoch uint64) bool {
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

func (r *mapReplicated) acceptKey(o *mapObj, epoch uint64, read bool) bool {
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

func (r *mapReplicated) Write(req WriteReq) WriteAck {
	r.stats.Writes.Inc()
	if !r.accept(req.Epoch) {
		return WriteAck{}
	}
	o := r.objects[req.Key]
	if o == nil {
		o = &mapObj{copies: make(map[vnet.Addr]mapCopy)}
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
		o.copies[a] = mapCopy{version: o.version, data: req.Data}
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

func (r *mapReplicated) Read(req ReadReq) (ReadResult, bool) {
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

func (r *mapReplicated) Repair(req RepairReq) int {
	if !r.accept(req.Epoch) {
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
			continue
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
				o.copies[e.addr] = mapCopy{version: maxLive, data: src}
				r.load[e.addr]++
				live++
				created++
				r.stats.ReReplicas.Inc()
				r.stats.BytesMoved.Add(o.size)
			}
		}
		if maxLive >= o.acked {
			r.rebuildPlaced(o, maxLive)
		}
	}
	return created
}

func (r *mapReplicated) rebuildPlaced(o *mapObj, v Version) {
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

func (r *mapReplicated) Forget(a vnet.Addr) int {
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

func (r *mapReplicated) Holders(k Key) []vnet.Addr {
	o := r.objects[k]
	if o == nil {
		return nil
	}
	return slices.Clone(r.holdersOf(o))
}

func (r *mapReplicated) Durable(k Key) (Version, bool) {
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

func (r *mapReplicated) dropCopy(o *mapObj, a vnet.Addr) {
	delete(o.copies, a)
	if r.load[a] > 0 {
		r.load[a]--
	}
}

func (r *mapReplicated) holdersOf(o *mapObj) []vnet.Addr {
	hs := r.holderScratch[:0]
	for a := range o.copies {
		hs = append(hs, a)
	}
	slices.Sort(hs)
	r.holderScratch = hs
	return hs
}

func (r *mapReplicated) sortedKeys() []Key {
	ks := r.keyScratch[:0]
	for k := range r.objects {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	r.keyScratch = ks
	return ks
}

// FuzzReplicatedMatchesMapModel runs a byte program against Replicated
// and the map model over one view. Three header bytes pick the quorums
// (any N <= 5 with W+R > N), the consistency level, RetainOffline and a
// fleet of 1 to 10 members; then each pair of bytes is one op — a data
// or sized write, a session or anonymous read, a repair, a departure, a
// member going dark or coming back, or a new controller epoch — on one
// of three keys, at the current epoch or, when the op byte's top bit is
// set, at the superseded one. After every op the acks, the read results
// (down to the backing array of the bytes served), Holders, Durable,
// Stats and every member's load must agree.
func FuzzReplicatedMatchesMapModel(f *testing.F) {
	f.Add([]byte{2, 8, 0, 0, 7, 24, 7, 2, 16, 6, 0, 6, 1, 3, 0, 4, 0, 3, 0})
	f.Add([]byte{4, 0, 70, 7, 0, 0, 1, 8, 2, 6, 2, 6, 3, 0, 1, 130, 2, 2, 17, 4, 0, 5, 1, 3, 0})
	// Longer random programs over every consistency level, with and
	// without retention, at four quorum shapes each.
	rng := rand.New(rand.NewSource(40))
	for c := byte(0); c < 3; c++ {
		for _, retain := range []byte{0, 4} {
			for shape := 0; shape < 4; shape++ {
				prog := []byte{byte(rng.Intn(5)), byte(rng.Intn(256)), c | retain | byte(rng.Intn(32))<<3}
				for i := 0; i < 400; i++ {
					prog = append(prog, byte(rng.Intn(256)))
				}
				f.Add(prog)
			}
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 3 {
			return
		}
		n := 1 + int(prog[0])%5
		w := 1 + int(prog[1])%n
		cfg := Config{
			N:             n,
			W:             w,
			R:             n - w + 1 + int(prog[1]>>3)%w,
			Consistency:   Consistency(prog[2] % 3),
			RetainOffline: prog[2]&4 != 0,
		}
		view := newTestView(1 + int(prog[2]>>3)%10)
		var gotStats, wantStats Stats
		r, err := NewReplicated(cfg, view, &gotStats)
		if err != nil {
			t.Fatal(err)
		}
		model, err := newMapReplicated(cfg, view, &wantStats)
		if err != nil {
			t.Fatal(err)
		}
		keys := []Key{"a", "b", "c"}
		clients := []ClientID{"x", "y"}
		sameBytes := func(a, b []byte) bool {
			return len(a) == len(b) && (a == nil) == (b == nil) && (len(a) == 0 || &a[0] == &b[0])
		}
		for pc := 3; pc+1 < len(prog); pc += 2 {
			op, arg := prog[pc], prog[pc+1]
			key := keys[int(op>>3)%len(keys)]
			member := view.members[int(arg)%len(view.members)]
			epoch := view.epoch
			if op&0x80 != 0 && epoch > 0 {
				epoch-- // a request from a superseded controller
			}
			what := func(s string) string {
				return fmt.Sprintf("N=%d W=%d R=%d %v retain=%v fleet=%d op %d (%s %s)",
					cfg.N, cfg.W, cfg.R, cfg.Consistency, cfg.RetainOffline, len(view.members), pc, s, key)
			}
			switch op & 7 {
			case 0, 1: // data or sized write
				req := WriteReq{Client: clients[arg>>7], Key: key, Epoch: epoch}
				if op&7 == 0 {
					req.Data = testPayload(1 + int(arg)%40)
				} else {
					req.Size = 1 + int(arg)*16
				}
				got, want := r.Write(req), model.Write(req)
				if got.Version != want.Version || got.Acked != want.Acked || !slices.Equal(got.Placed, want.Placed) {
					t.Fatalf("%s: ack %+v, model %+v", what("write"), got, want)
				}
			case 2, 3: // session or anonymous read
				req := ReadReq{Key: key, Epoch: epoch}
				if op&7 == 2 {
					req.Client = clients[arg>>7]
				}
				got, gotOK := r.Read(req)
				want, wantOK := model.Read(req)
				if gotOK != wantOK || got.Version != want.Version || got.Latency != want.Latency ||
					got.Replies != want.Replies || !sameBytes(got.Data, want.Data) {
					t.Fatalf("%s: ok=%v %+v, model ok=%v %+v", what("read"), gotOK, got, wantOK, want)
				}
			case 4: // repair
				req := RepairReq{Epoch: epoch}
				if got, want := r.Repair(req), model.Repair(req); got != want {
					t.Fatalf("%s: created %d, model %d", what("repair"), got, want)
				}
			case 5: // the member departs for good (and may return wiped)
				if got, want := r.Forget(member), model.Forget(member); got != want {
					t.Fatalf("%s: dropped %d, model %d", what("forget"), got, want)
				}
			case 6: // a member goes dark or comes back
				view.offline[member] = !view.offline[member]
			default: // a new controller takes over
				view.epoch++
			}
			for _, k := range keys {
				gv, gok := r.Durable(k)
				wv, wok := model.Durable(k)
				if gv != wv || gok != wok || !slices.Equal(r.Holders(k), model.Holders(k)) {
					t.Fatalf("%s: key %s durable v%d %v holders %v, model v%d %v holders %v",
						what("audit"), k, gv, gok, r.Holders(k), wv, wok, model.Holders(k))
				}
			}
			if gotStats != wantStats {
				t.Fatalf("%s: stats %+v, model %+v", what("stats"), gotStats, wantStats)
			}
			for _, a := range view.members {
				if r.load[a] != model.load[a] {
					t.Fatalf("%s: load[%d] = %d, model %d", what("load"), a, r.load[a], model.load[a])
				}
			}
		}
	})
}
