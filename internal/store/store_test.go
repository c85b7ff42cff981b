package store

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vcloud/internal/vnet"
)

// testView is a mutable View for unit tests.
type testView struct {
	members []vnet.Addr
	offline map[vnet.Addr]bool
	dwell   map[vnet.Addr]float64
	epoch   uint64
}

func (v *testView) Members() []vnet.Addr    { return v.members }
func (v *testView) Online(a vnet.Addr) bool { return !v.offline[a] }
func (v *testView) Dwell(a vnet.Addr) float64 {
	if d, ok := v.dwell[a]; ok {
		return d
	}
	return 1e9
}
func (v *testView) Epoch() uint64 { return v.epoch }

func newTestView(n int) *testView {
	v := &testView{offline: map[vnet.Addr]bool{}, dwell: map[vnet.Addr]float64{}}
	for i := 0; i < n; i++ {
		v.members = append(v.members, vnet.Addr(i))
	}
	return v
}

func TestConfigValidate(t *testing.T) {
	c := Config{}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.N != 3 || c.W != 2 || c.R != 2 || c.K != 4 || c.M != 2 || c.FragAck != 6 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	bad := []Config{
		{N: 3, W: 1, R: 1},       // W+R <= N
		{N: 2, W: 3, R: 1},       // W > N
		{K: 1, M: 300},           // k+m > 255
		{K: 4, M: 2, FragAck: 2}, // FragAck <= M
		{Placement: PlaceDwell + 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if _, err := NewReplicated(Config{}, nil, &Stats{}); err == nil {
		t.Error("nil view accepted")
	}
	if _, err := NewReplicated(Config{}, newTestView(3), nil); err == nil {
		t.Error("nil stats accepted")
	}
}

func TestReplicatedQuorumBasics(t *testing.T) {
	v := newTestView(5)
	st := &Stats{}
	r, err := NewReplicated(Config{N: 3, W: 2, R: 2}, v, st)
	if err != nil {
		t.Fatal(err)
	}
	ack := Put(r, "c1", "k", []byte("hello"))
	if !ack.Acked || ack.Version != 1 || len(ack.Placed) != 3 {
		t.Fatalf("write: %+v", ack)
	}
	res, ok := Get(r, "c1", "k")
	if !ok || res.Version != 1 || !bytes.Equal(res.Data, []byte("hello")) {
		t.Fatalf("read: %+v ok=%v", res, ok)
	}
	if res.Replies < 2 || res.Latency <= 0 {
		t.Fatalf("read replies/latency: %+v", res)
	}
	// Knock out all but one holder: R=2 unreachable, read refused.
	holders := r.Holders("k")
	v.offline[holders[0]] = true
	v.offline[holders[1]] = true
	if _, ok := Get(r, "c1", "k"); ok {
		t.Fatal("read served below quorum")
	}
	// Repair tops back up to N from the remaining copy.
	if created := Fix(r); created != 2 {
		t.Fatalf("repair created %d, want 2", created)
	}
	if res, ok := Get(r, "c1", "k"); !ok || res.Version != 1 {
		t.Fatalf("read after repair: %+v ok=%v", res, ok)
	}
	if st.ReReplicas.Value() != 2 {
		t.Errorf("ReReplicas = %d, want 2", st.ReReplicas.Value())
	}
}

func TestReplicatedWriteBelowQuorumNotAcked(t *testing.T) {
	v := newTestView(3)
	v.offline[0], v.offline[1] = true, true
	st := &Stats{}
	r, _ := NewReplicated(Config{N: 3, W: 2, R: 2}, v, st)
	ack := Put(r, "", "k", []byte("x"))
	if ack.Acked {
		t.Fatalf("acked with a single online member: %+v", ack)
	}
	if len(ack.Placed) != 1 {
		t.Fatalf("placed %v, want exactly the one online member", ack.Placed)
	}
	if st.WriteAcks.Value() != 0 {
		t.Error("WriteAcks counted an un-acked write")
	}
}

func TestSessionMonotonicReads(t *testing.T) {
	v := newTestView(5)
	st := &Stats{}
	r, _ := NewReplicated(Config{N: 3, W: 2, R: 2, Consistency: Session}, v, st)
	Put(r, "c1", "k", []byte("v1"))
	Put(r, "c1", "k", []byte("v2")) // version 2 on same holders
	if res, ok := Get(r, "c1", "k"); !ok || res.Version != 2 {
		t.Fatalf("read: %+v ok=%v", res, ok)
	}
	// Strand the client on a stale quorum: force version 2's holders
	// offline, repair from nothing — simulate by marking holders
	// offline so only sub-quorum remains; reads must refuse rather
	// than serve version 1 to c1.
	for _, a := range r.Holders("k") {
		v.offline[a] = true
	}
	if _, ok := Get(r, "c1", "k"); ok {
		t.Fatal("served a read with every holder offline")
	}
	// An anonymous client has no watermark and is also refused here
	// (no quorum), so bring back one stale holder scenario instead:
	// manually regress the object to test the watermark path.
	o := r.objects["k"]
	for i, h := range o.holders {
		v.offline[h.addr] = false
		o.holders[i].frags[0] = frag{version: 1, data: []byte("v1")}
	}
	if _, ok := Get(r, "c1", "k"); ok {
		t.Fatal("session client read went backwards")
	}
	if st.SessionStale.Value() == 0 {
		t.Error("SessionStale not counted")
	}
	if _, ok := Get(r, "", "k"); !ok {
		t.Fatal("anonymous client should be served the stale version")
	}
}

// fencedBackend is what the fencing tests drive: either backend, with
// the shared store-wide fence and holder table in reach.
type fencedBackend interface {
	Backend
	accept(epoch uint64) bool
	Holders(k Key) []vnet.Addr
}

// fenceRow is one backend a fencing test runs against.
type fenceRow struct {
	name string
	mk   func(View, *Stats) (fencedBackend, error)
}

// fenceRows builds one row per backend. cfg sets the replicated quorums
// and the consistency level; the erasure row runs cfg with a (k, m) code
// instead, chosen so it places as many members as the quorum store
// copies.
func fenceRows(cfg Config, k, m int) []fenceRow {
	ec := cfg
	ec.K, ec.M = k, m
	return []fenceRow{
		{"replicated", func(v View, st *Stats) (fencedBackend, error) { return NewReplicated(cfg, v, st) }},
		{"erasure", func(v View, st *Stats) (fencedBackend, error) { return NewErasureCoded(ec, v, st) }},
	}
}

// TestLinearizableEpochFencing pins the per-key fence of both backends:
// a superseded epoch may neither write nor read a key a newer epoch has
// touched, and a read at a newer epoch fences the key's writers too.
func TestLinearizableEpochFencing(t *testing.T) {
	for _, row := range fenceRows(Config{N: 3, W: 2, R: 2, Consistency: Linearizable}, 2, 1) {
		t.Run(row.name, func(t *testing.T) {
			v := newTestView(5)
			st := &Stats{}
			r, err := row.mk(v, st)
			if err != nil {
				t.Fatal(err)
			}
			if ack := r.Write(WriteReq{Key: "k", Data: []byte("a"), Epoch: 5}); !ack.Acked {
				t.Fatalf("epoch-5 write refused: %+v", ack)
			}
			// A superseded controller (epoch 3) must not write or read.
			if ack := r.Write(WriteReq{Key: "k", Data: []byte("b"), Epoch: 3}); ack.Acked {
				t.Fatal("stale-epoch write accepted")
			}
			if st.StaleWrites.Value() != 1 {
				t.Errorf("StaleWrites = %d, want 1", st.StaleWrites.Value())
			}
			if _, ok := r.Read(ReadReq{Key: "k", Epoch: 6}); !ok {
				t.Fatal("fresh-epoch read refused")
			}
			// The epoch-6 read fences the key: an epoch-5 write is now stale.
			if ack := r.Write(WriteReq{Key: "k", Data: []byte("c"), Epoch: 5}); ack.Acked {
				t.Fatal("write below the key's read fence accepted")
			}
			if _, ok := r.Read(ReadReq{Key: "k", Epoch: 4}); ok {
				t.Fatal("stale-epoch read served")
			}
			if st.StaleReads.Value() == 0 {
				t.Error("StaleReads not counted")
			}
			// Repair from a stale epoch is refused outright.
			v.offline[vnet.Addr(0)] = true
			if n := r.Repair(RepairReq{Epoch: 2}); n != 0 {
				t.Fatalf("stale-epoch repair created %d copies", n)
			}
		})
	}
}

func TestDwellPlacementPrefersLongStayers(t *testing.T) {
	v := newTestView(6)
	// Members 0..2 are short-dwell (tier 0/1), 3..5 long (tier 3).
	v.dwell[0], v.dwell[1], v.dwell[2] = 10, 20, 40
	v.dwell[3], v.dwell[4], v.dwell[5] = 700, 800, 900
	st := &Stats{}
	r, _ := NewReplicated(Config{N: 3, W: 2, R: 2, Placement: PlaceDwell}, v, st)
	ack := Put(r, "", "k", []byte("x"))
	want := []vnet.Addr{3, 4, 5}
	if !slices.Equal(ack.Placed, want) {
		t.Fatalf("placed %v, want the long-dwell members %v", ack.Placed, want)
	}
}

func TestErasureCodedBackend(t *testing.T) {
	v := newTestView(8)
	st := &Stats{}
	e, err := NewErasureCoded(Config{K: 4, M: 2}, v, st)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("erasure-coded object payload spread across the fleet")
	ack := Put(e, "c1", "k", payload)
	if !ack.Acked || len(ack.Placed) != 6 {
		t.Fatalf("write: %+v", ack)
	}
	res, ok := Get(e, "c1", "k")
	if !ok || res.Version != 1 || !bytes.Equal(res.Data, payload) {
		t.Fatalf("read: ok=%v version=%d data=%q", ok, res.Version, res.Data)
	}
	// Lose M members: still readable; M+1: not reconstructible live.
	v.offline[ack.Placed[0]] = true
	v.offline[ack.Placed[1]] = true
	if res, ok := Get(e, "c1", "k"); !ok || !bytes.Equal(res.Data, payload) {
		t.Fatalf("read after M losses: ok=%v", ok)
	}
	v.offline[ack.Placed[2]] = true
	if _, ok := Get(e, "c1", "k"); ok {
		t.Fatal("read served with only K-1 fragments live")
	}
	// Repair regenerates the missing indices onto spare members — but
	// only once at least K fragments are live again.
	v.offline[ack.Placed[2]] = false
	created := Fix(e)
	if created < 2 {
		t.Fatalf("repair created %d fragments, want >= 2", created)
	}
	if res, ok := Get(e, "c1", "k"); !ok || !bytes.Equal(res.Data, payload) {
		t.Fatalf("read after repair: ok=%v", ok)
	}
	// Departed members lose fragments permanently.
	if dropped := e.Forget(ack.Placed[3]); dropped == 0 {
		t.Fatal("Forget dropped nothing")
	}
	if ver, ok := e.Durable("k"); !ok || ver != 1 {
		t.Fatalf("Durable after Forget: %d %v", ver, ok)
	}
}

// TestBackendsShareDataOwnership pins the ownership contract of
// WriteReq.Data and ReadResult.Data for both backends: the store keeps
// the written slice without copying it and an intact read hands that very
// slice back; an erasure-coded read that had to rebuild a data shard
// returns equal bytes in storage of its own, so writing to it reaches
// neither the written object nor the fragments still stored.
func TestBackendsShareDataOwnership(t *testing.T) {
	v := newTestView(8)
	r, err := NewReplicated(Config{N: 3}, v, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewErasureCoded(Config{K: 4, M: 2, RetainOffline: true}, v, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	data := testPayload(4096)
	orig := bytes.Clone(data)
	for _, b := range []Backend{r, e} {
		if ack := Put(b, "c", "k", data); !ack.Acked {
			t.Fatalf("%T write: %+v", b, ack)
		}
		res, ok := Get(b, "c", "k")
		if !ok || len(res.Data) != len(data) || &res.Data[0] != &data[0] {
			t.Errorf("%T: intact read ok=%v did not return the written slice", b, ok)
		}
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("a write or an intact read modified the caller's bytes")
	}
	for _, h := range e.objects["k"].holders {
		if h.frags[0].index == 0 {
			v.offline[h.addr] = true // data shard 0 must be rebuilt from parity
		}
	}
	res, ok := Get(e, "c", "k")
	if !ok || !bytes.Equal(res.Data, orig) {
		t.Fatalf("degraded read: ok=%v, %d bytes", ok, len(res.Data))
	}
	for i := range res.Data {
		res.Data[i] ^= 0xff
	}
	if !bytes.Equal(data, orig) {
		t.Error("a degraded read returned storage shared with the written object")
	}
	clear(v.offline)
	if res, ok := Get(e, "c", "k"); !ok || !bytes.Equal(res.Data, orig) {
		t.Errorf("read after scribbling on a degraded read's result: ok=%v, bytes differ = %v", ok, !bytes.Equal(res.Data, orig))
	}
}

func TestErasureDurableAcrossTotalOutage(t *testing.T) {
	v := newTestView(6)
	st := &Stats{}
	e, _ := NewErasureCoded(Config{K: 3, M: 2, FragAck: 5}, v, st)
	ack := Put(e, "", "k", []byte("survives crashes"))
	if !ack.Acked {
		t.Fatalf("write not acked: %+v", ack)
	}
	for _, a := range v.members {
		v.offline[a] = true
	}
	if _, ok := Get(e, "", "k"); ok {
		t.Fatal("read served during total outage")
	}
	// Crashed members still hold their fragments: durable.
	if ver, ok := e.Durable("k"); !ok || ver != 1 {
		t.Fatalf("Durable during outage: %d %v", ver, ok)
	}
	for _, a := range v.members {
		v.offline[a] = false
	}
	if res, ok := Get(e, "", "k"); !ok || !bytes.Equal(res.Data, []byte("survives crashes")) {
		t.Fatalf("read after recovery: ok=%v", ok)
	}
}

func TestForgetThenRepairRestoresDurability(t *testing.T) {
	v := newTestView(6)
	st := &Stats{}
	r, _ := NewReplicated(Config{N: 3, W: 2, R: 2, RetainOffline: true}, v, st)
	ack := Put(r, "", "k", []byte("x"))
	// One holder departs for good: its copy is gone, repair re-creates
	// it elsewhere from the survivors.
	r.Forget(ack.Placed[0])
	if len(r.Holders("k")) != 2 {
		t.Fatalf("holders after Forget: %v", r.Holders("k"))
	}
	if created := Fix(r); created != 1 {
		t.Fatalf("repair created %d, want 1", created)
	}
	if ver, ok := r.Durable("k"); !ok || ver != 1 {
		t.Fatalf("Durable: %d %v", ver, ok)
	}
}

func TestReplicatedEventualAllowsBackwardReads(t *testing.T) {
	v := newTestView(5)
	st := &Stats{}
	r, _ := NewReplicated(Config{N: 3, W: 3, R: 1, Consistency: Eventual}, v, st)
	Put(r, "c", "k", []byte("v1"))
	Put(r, "c", "k", []byte("v2"))
	o := r.objects["k"]
	for i := range o.holders {
		o.holders[i].frags[0] = frag{version: 1, data: []byte("v1")}
	}
	if res, ok := Get(r, "c", "k"); !ok || res.Version != 1 {
		t.Fatalf("eventual read should serve the stale version: %+v ok=%v", res, ok)
	}
}

// TestErasureUnackedOverwriteKeepsAckedDurable pins the overwrite
// hazard: a write that cannot reach its quorum replaces reachable
// members' fragments, but it must not destroy their fragments of the
// version the service already acknowledged — an acked write may only
// lose durability to member departures, never to a failed overwrite.
func TestErasureUnackedOverwriteKeepsAckedDurable(t *testing.T) {
	v := newTestView(6)
	st := &Stats{}
	e, err := NewErasureCoded(Config{K: 4, M: 2}, v, st)
	if err != nil {
		t.Fatal(err)
	}
	ack := PutSized(e, "c", "k", 4096)
	if !ack.Acked || len(ack.Placed) != 6 {
		t.Fatalf("write: %+v", ack)
	}
	// Partition: only 3 members reachable — the overwrite lands all six
	// fragment indices on them and cannot reach its FragAck=6 quorum.
	for _, a := range ack.Placed[3:] {
		v.offline[a] = true
	}
	if ack2 := PutSized(e, "c", "k", 4096); ack2.Acked {
		t.Fatalf("overwrite acked below quorum: %+v", ack2)
	}
	// Two of the overwritten members depart for good. The unacked v2
	// is now short of K distinct indices; v1 must still reconstruct
	// from the retained fragment on the third plus the three crashed
	// (not departed) holders — 4 of 6 placed members survive.
	e.Forget(ack.Placed[0])
	e.Forget(ack.Placed[1])
	if ver, ok := e.Durable("k"); !ok || ver < ack.Version {
		t.Fatalf("acked v%d lost to unacked overwrite: durable=%d ok=%v", ack.Version, ver, ok)
	}
}

// TestReplicatedWriteAllReadOne pins the W=N, R=1 configuration E8 runs —
// "k copies, serve from any survivor": a read needs one live holder,
// repair tops a lone survivor back up to N, and neither can bring back a
// key whose every copy departed.
func TestReplicatedWriteAllReadOne(t *testing.T) {
	v := newTestView(4)
	st := &Stats{}
	r, err := NewReplicated(Config{N: 2, W: 2, R: 1}, v, st)
	if err != nil {
		t.Fatal(err)
	}
	ack := PutSized(r, "", "f1", 1000)
	if !ack.Acked || len(ack.Placed) != 2 {
		t.Fatalf("write: %+v", ack)
	}
	if _, ok := Get(r, "", "f1"); !ok {
		t.Error("read with every copy online failed")
	}
	v.offline[ack.Placed[0]], v.offline[ack.Placed[1]] = true, true
	if _, ok := Get(r, "", "f1"); ok {
		t.Error("read served with every holder offline")
	}
	if created := Fix(r); created != 0 {
		t.Errorf("repair resurrected a key with no live copy: %d", created)
	}
	clear(v.offline)
	ack = PutSized(r, "", "f2", 500)
	v.offline[ack.Placed[0]] = true
	if created := Fix(r); created != 1 {
		t.Errorf("repair from one survivor created %d copies, want N-1 = 1", created)
	}
	if n := len(r.Holders("f2")); n != 2 {
		t.Errorf("holders after repair = %d, want 2", n)
	}
	if _, ok := Get(r, "", "f2"); !ok {
		t.Error("read after repair failed")
	}
	if _, ok := Get(r, "", "ghost"); ok {
		t.Error("read of an unknown key succeeded")
	}
	if a := st.Availability(); a <= 0 || a >= 1 {
		t.Errorf("availability = %v, want a mixed-outcome fraction", a)
	}
	if st.ReReplicas.Value() != 1 {
		t.Errorf("ReReplicas = %d, want 1", st.ReReplicas.Value())
	}
}

// TestReplicatedEpochFence pins the store-wide write fence every
// consistency level of both backends has: a superseded controller's
// writes and repairs are refused and counted, epoch zero is never fenced.
func TestReplicatedEpochFence(t *testing.T) {
	for _, row := range fenceRows(Config{N: 2, W: 2, R: 1}, 1, 1) {
		t.Run(row.name, func(t *testing.T) {
			st := &Stats{}
			r, err := row.mk(newTestView(3), st)
			if err != nil {
				t.Fatal(err)
			}
			if !r.accept(0) {
				t.Error("epoch zero must always be accepted")
			}
			if ack := r.Write(WriteReq{Key: "f1", Size: 100, Epoch: 2}); len(ack.Placed) != 2 {
				t.Fatalf("write at the high watermark placed %v, want 2 copies", ack.Placed)
			}
			if ack := r.Write(WriteReq{Key: "f2", Size: 100, Epoch: 1}); ack.Version != 0 || len(ack.Placed) != 0 {
				t.Errorf("stale-epoch write went through: %+v", ack)
			}
			if n := r.Repair(RepairReq{Epoch: 1}); n != 0 {
				t.Errorf("stale-epoch repair created %d copies", n)
			}
			if got := st.StaleWrites.Value(); got != 2 {
				t.Errorf("StaleWrites = %d, want 2", got)
			}
			if len(r.Holders("f2")) != 0 {
				t.Error("refused write still created placements")
			}
			if !r.accept(0) {
				t.Error("epoch zero refused after fenced writes raised the watermark")
			}
			if ack := r.Write(WriteReq{Key: "f3", Size: 100, Epoch: 3}); len(ack.Placed) != 2 {
				t.Errorf("superseding-epoch write placed %v, want 2 copies", ack.Placed)
			}
			if r.accept(2) {
				t.Error("previous high watermark still accepted after supersession")
			}
		})
	}
}

// TestReplicatedDepartureInvariantProperty: under the departure model a
// key never has more than N holders after a repair, and a read-one read
// is served exactly when an online member of the placed set holds it.
func TestReplicatedDepartureInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(k8 uint8, flips []uint8) bool {
		k := int(k8%4) + 1
		v := newTestView(10)
		r, err := NewReplicated(Config{N: k, W: k, R: 1}, v, &Stats{})
		if err != nil {
			return false
		}
		if ack := PutSized(r, "", "f", 100); len(ack.Placed) != k {
			return false
		}
		o := r.objects["f"]
		for _, fl := range flips {
			v.offline[vnet.Addr(fl%10)] = fl%2 != 0
			Fix(r)
			if len(o.holders) > k {
				return false
			}
			want := slices.ContainsFunc(o.placed, func(a vnet.Addr) bool {
				_, has := o.find(a)
				return has && v.Online(a)
			})
			if _, got := Get(r, "", "f"); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestReplicatedRetentionModelsBatterySleep: with RetainOffline an
// offline holder is asleep, not gone — its copy serves again when it
// wakes, and nothing is copied in between.
func TestReplicatedRetentionModelsBatterySleep(t *testing.T) {
	v := newTestView(1)
	st := &Stats{}
	r, err := NewReplicated(Config{N: 1, W: 1, R: 1, RetainOffline: true}, v, st)
	if err != nil {
		t.Fatal(err)
	}
	PutSized(r, "", "f", 100)
	if _, ok := Get(r, "", "f"); !ok {
		t.Fatal("read with the holder online failed")
	}
	v.offline[0] = true
	Fix(r)
	if _, ok := Get(r, "", "f"); ok {
		t.Error("read served while the only holder sleeps")
	}
	if n := len(r.Holders("f")); n != 1 {
		t.Errorf("sleeping holder's copy dropped: %d holders", n)
	}
	v.offline[0] = false
	if _, ok := Get(r, "", "f"); !ok {
		t.Error("returned sleeper no longer serves its copy")
	}
	if created := Fix(r); created != 0 || st.BytesMoved.Value() != 100 {
		t.Errorf("sleeper's return moved bytes: created=%d bytes=%d", created, st.BytesMoved.Value())
	}
}

// TestReplicatedRepairWithRetentionDoesNotDoubleCount: a sleeping holder
// keeps its copy, so repair tops the live copies up once, repeated
// repairs add nothing, and the returned sleeper's copy is counted once
// and reused before any new copy is made.
func TestReplicatedRepairWithRetentionDoesNotDoubleCount(t *testing.T) {
	v := newTestView(3)
	st := &Stats{}
	r, err := NewReplicated(Config{N: 2, W: 2, R: 1, RetainOffline: true}, v, st)
	if err != nil {
		t.Fatal(err)
	}
	ack := PutSized(r, "", "f", 100)
	if st.BytesMoved.Value() != 200 {
		t.Fatalf("bytes after write = %d, want 200", st.BytesMoved.Value())
	}
	moved := func(what string, rereplicas, bytes uint64) {
		t.Helper()
		if st.ReReplicas.Value() != rereplicas || st.BytesMoved.Value() != bytes {
			t.Errorf("%s: re-replicas=%d bytes=%d, want %d/%d",
				what, st.ReReplicas.Value(), st.BytesMoved.Value(), rereplicas, bytes)
		}
	}
	sleeper := ack.Placed[0]
	v.offline[sleeper] = true
	Fix(r)
	moved("first repair", 1, 300)
	Fix(r)
	Fix(r)
	moved("repeated repair while the sleeper stays offline", 1, 300)
	v.offline[sleeper] = false
	if _, ok := Get(r, "", "f"); !ok {
		t.Error("returned sleeper does not serve")
	}
	Fix(r)
	moved("sleeper's return", 1, 300)
	if n := len(r.Holders("f")); n != 3 {
		t.Errorf("holders after the sleeper's return = %d, want its copy kept beside the 2 live ones", n)
	}
	// Another holder sleeps: the returned copy already makes N live.
	v.offline[ack.Placed[1]] = true
	Fix(r)
	moved("repair with the sleeper's copy live", 1, 300)
	if _, ok := Get(r, "", "f"); !ok {
		t.Error("read failed with two live copies")
	}
}
