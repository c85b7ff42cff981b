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
