package store

import (
	"bytes"
	"slices"
	"testing"

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
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
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
	for _, a := range r.Holders("k") {
		v.offline[a] = false
		o.copies[a] = rcopy{version: 1, data: []byte("v1")}
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

func TestLinearizableEpochFencing(t *testing.T) {
	v := newTestView(5)
	st := &Stats{}
	r, _ := NewReplicated(Config{N: 3, W: 2, R: 2, Consistency: Linearizable}, v, st)
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
	// Legacy order ignores dwell entirely.
	r2, _ := NewReplicated(Config{N: 3, W: 2, R: 2, Placement: PlaceLowestAddr}, v, st)
	ack = Put(r2, "", "k", []byte("x"))
	if !slices.Equal(ack.Placed, []vnet.Addr{0, 1, 2}) {
		t.Fatalf("legacy placement %v, want [0 1 2]", ack.Placed)
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
	for _, a := range r.Holders("k") {
		o.copies[a] = rcopy{version: 1, data: []byte("v1")}
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
