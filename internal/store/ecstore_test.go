package store

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"vcloud/internal/vnet"
)

// TestFragTableMatchesMapModel drives the fragment table through random
// set / append / delete / forget operations over three objects and
// checks it after every step against the map-of-slices it replaced,
// read in sorted key order: same members ascending, same fragments per
// member, same per-member load, and no dropped row left in the backing
// array where it would pin its shard bytes.
func TestFragTableMatchesMapModel(t *testing.T) {
	e, err := NewErasureCoded(Config{}, newTestView(0), &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{"a", "b", "c"}
	model := map[Key]map[vnet.Addr][]frag{}
	for _, k := range keys {
		e.objects[k] = &ecobj{}
		model[k] = map[vnet.Addr][]frag{}
	}
	rng := rand.New(rand.NewSource(7))
	newFrag := func() frag {
		return frag{version: Version(1 + rng.Intn(4)), index: rng.Intn(6), data: []byte{byte(rng.Intn(256))}}
	}
	for step := 0; step < 4000; step++ {
		k := keys[rng.Intn(len(keys))]
		o, a := e.objects[k], vnet.Addr(rng.Intn(24))
		switch rng.Intn(5) {
		case 0: // set: a write replaces the member's fragments
			fs := []frag{newFrag()}
			e.hold(o, a).frags = slices.Clone(fs)
			model[k][a] = fs
		case 1, 2: // append: a repair adds one
			f := newFrag()
			h := e.hold(o, a)
			h.frags = append(h.frags, f)
			model[k][a] = append(model[k][a], f)
		case 3: // delete: the member's row of one object goes
			if i, ok := o.find(a); ok {
				e.drop(o, i)
			}
			delete(model[k], a)
		case 4: // forget: the member departs from every object
			want := 0
			for _, k := range keys {
				want += len(model[k][a])
				delete(model[k], a)
			}
			if got := e.Forget(a); got != want {
				t.Fatalf("step %d: Forget(%d) dropped %d fragments, model %d", step, a, got, want)
			}
		}
		load := map[vnet.Addr]int{}
		for _, k := range keys {
			o := e.objects[k]
			want := make([]vnet.Addr, 0, len(model[k]))
			for a := range model[k] {
				want = append(want, a)
				load[a]++
			}
			slices.Sort(want)
			if got := e.Holders(k); !slices.Equal(got, want) {
				t.Fatalf("step %d key %s: holders %v, model %v", step, k, got, want)
			}
			for i, h := range o.holders {
				if !slices.EqualFunc(h.frags, model[k][h.addr], func(x, y frag) bool {
					return x.version == y.version && x.index == y.index && bytes.Equal(x.data, y.data)
				}) {
					t.Fatalf("step %d key %s row %d (member %d): fragments %v, model %v", step, k, i, h.addr, h.frags, model[k][h.addr])
				}
				if j, ok := o.find(h.addr); !ok || j != i {
					t.Fatalf("step %d key %s: find(%d) = %d,%v, want %d,true", step, k, h.addr, j, ok, i)
				}
			}
			for _, h := range o.holders[len(o.holders):cap(o.holders)] {
				if h.addr != 0 || h.frags != nil {
					t.Fatalf("step %d key %s: vacated tail still holds member %d's row", step, k, h.addr)
				}
			}
		}
		for a := vnet.Addr(0); a < 24; a++ {
			if e.load[a] != load[a] {
				t.Fatalf("step %d: load[%d] = %d, model %d", step, a, e.load[a], load[a])
			}
		}
	}
}

// refBestVersion is the map-of-maps bestVersion the tally replaced, kept
// as the oracle: the highest version with >= k distinct fragment indices
// among the rows, and the ascending members holding any fragment of it.
func refBestVersion(k int, rows []holder) (Version, []vnet.Addr) {
	byVersion := make(map[Version]map[int]bool)
	for _, h := range rows {
		for _, f := range h.frags {
			m := byVersion[f.version]
			if m == nil {
				m = make(map[int]bool)
				byVersion[f.version] = m
			}
			m[f.index] = true
		}
	}
	best := Version(0)
	for v, idx := range byVersion {
		if len(idx) >= k && v > best {
			best = v
		}
	}
	if best == 0 {
		return 0, nil
	}
	var contributors []vnet.Addr
	for _, h := range rows {
		for _, f := range h.frags {
			if f.version == best {
				contributors = append(contributors, h.addr)
				break
			}
		}
	}
	return best, contributors
}

// TestBestVersionMatchesReference compares the tally against the oracle
// on random tables — stale versions, duplicated indices across and
// within members, several fragments per member, live and non-live
// sweeps — and on a store whose fleet is smaller than K+M.
func TestBestVersionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(e *ErasureCoded, rows []holder, what string) {
		t.Helper()
		want, contributors := refBestVersion(e.cfg.K, rows)
		got := e.bestVersion(rows)
		if got.version != want {
			t.Fatalf("%s: bestVersion %d, reference %d (rows %v)", what, got.version, want, rows)
		}
		if want == 0 {
			if got != (tally{}) {
				t.Fatalf("%s: nothing reconstructs but the tally is %+v", what, got)
			}
			return
		}
		idx := map[int]bool{}
		var holding []vnet.Addr
		for _, h := range rows {
			held := false
			for _, f := range h.frags {
				if f.version == want {
					idx[f.index], held = true, true
					if got.size != f.size || got.length != f.length {
						t.Fatalf("%s: tally sizes %d/%d, fragment says %d/%d", what, got.size, got.length, f.size, f.length)
					}
				}
			}
			if held {
				holding = append(holding, h.addr)
			}
		}
		if !slices.Equal(holding, contributors) {
			t.Fatalf("%s: contributors %v, reference %v", what, holding, contributors)
		}
		if got.n != len(idx) {
			t.Fatalf("%s: %d distinct indices tallied, reference %d", what, got.n, len(idx))
		}
		for i := 0; i < 255; i++ {
			if got.has(i) != idx[i] {
				t.Fatalf("%s: has(%d) = %v, reference %v", what, i, got.has(i), idx[i])
			}
		}
	}
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(5)
		v := newTestView(10)
		e, err := NewErasureCoded(Config{K: k, M: 2 + rng.Intn(250-k)}, v, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		o := &ecobj{}
		for a := vnet.Addr(0); a < 10; a++ {
			if rng.Intn(4) == 0 {
				v.offline[a] = true
			}
			for n := rng.Intn(5); n > 0; n-- {
				ver := Version(1 + rng.Intn(5))
				f := frag{version: ver, index: rng.Intn(k + 2), size: int(ver) * 100, length: int(ver) * 10}
				if rng.Intn(8) == 0 {
					f.index = e.cfg.K + e.cfg.M - 1 // the far end of the bitmask
				}
				h := e.hold(o, a)
				h.frags = append(h.frags, f)
			}
		}
		check(e, o.holders, "all holders")
		check(e, e.online(o), "live holders")
	}

	// A 3-member fleet under a (4, 2) code: every member holds two
	// indices of each version, and an overwrite keeps the acked pair.
	v := newTestView(3)
	e, err := NewErasureCoded(Config{K: 4, M: 2, FragAck: 3, RetainOffline: true}, v, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if ack := Put(e, "", "k", testPayload(100+i)); !ack.Acked {
			t.Fatalf("write %d: %+v", i, ack)
		}
		v.offline[vnet.Addr(i)] = true // the next overwrite misses this member
		o := e.objects["k"]
		check(e, o.holders, "small fleet, all holders")
		check(e, e.online(o), "small fleet, live holders")
		v.offline[vnet.Addr(i)] = i == 2
	}
}

// TestErasureReadBelowNewestWriteReturnsItsData: a read correctly served
// at the last acked version while a newer write exists without a live
// quorum must return that version's bytes and price its fragment size.
// Sizes used to be kept per object, so such a read came back ReadsOK
// with nil Data and the newer write's latency.
func TestErasureReadBelowNewestWriteReturnsItsData(t *testing.T) {
	small, big := testPayload(400), testPayload(40000)
	setup := func(t *testing.T) (*ErasureCoded, *testView, WriteAck) {
		v := newTestView(6)
		e, err := NewErasureCoded(Config{K: 4, M: 2, RetainOffline: true}, v, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		ack := Put(e, "c", "k", small)
		if !ack.Acked || len(ack.Placed) != 6 {
			t.Fatalf("write: %+v", ack)
		}
		return e, v, ack
	}
	check := func(t *testing.T, e *ErasureCoded) {
		t.Helper()
		res, ok := Get(e, "c", "k")
		if !ok || res.Version != 1 {
			t.Fatalf("read: ok=%v version=%d, want the acked v1", ok, res.Version)
		}
		if !bytes.Equal(res.Data, small) {
			t.Errorf("read served v1 with %d bytes of data, want its %d-byte payload", len(res.Data), len(small))
		}
		if want := DefaultRTT(0, len(small)/4); res.Latency != want {
			t.Errorf("read latency %v, want %v (v1's fragment size)", res.Latency, want)
		}
		if got := e.stats.ReadsOK.Value(); got != 1 {
			t.Errorf("ReadsOK = %d, want 1", got)
		}
	}
	t.Run("unacked overwrite lost its holders", func(t *testing.T) {
		e, v, ack := setup(t)
		// Only three members reachable: the overwrite lands on them and
		// cannot reach FragAck. Then two of those go dark and the other
		// three return, leaving v2 two live indices and v1 four.
		for _, a := range ack.Placed[3:] {
			v.offline[a] = true
		}
		if ack2 := Put(e, "c", "k", big); ack2.Acked || ack2.Version != 2 {
			t.Fatalf("overwrite: %+v", ack2)
		}
		for _, a := range ack.Placed {
			v.offline[a] = a == ack.Placed[1] || a == ack.Placed[2]
		}
		check(t, e)
	})
	t.Run("write while nobody was online", func(t *testing.T) {
		e, v, ack := setup(t)
		for _, a := range ack.Placed {
			v.offline[a] = true
		}
		if ack2 := Put(e, "c", "k", big); ack2.Acked || ack2.Version != 2 || len(ack2.Placed) != 0 {
			t.Fatalf("write into the outage: %+v", ack2)
		}
		clear(v.offline)
		check(t, e)
	})
}

// TestErasureAllocBudgets holds the data path to its budgets: auditing
// durability and tallying versions allocate nothing; a read with every
// data window live returns the written object and allocates nothing (the
// shard slots are store scratch); a read that lost data fragments pays
// the K×K inversion, one allocation per rebuilt data shard and Join's
// copy — no parity re-derivation; a write allocates the shard headers,
// one backing array for parity (and any ragged or padding shard) and
// Placed.
func TestErasureAllocBudgets(t *testing.T) {
	v := newTestView(8)
	e, err := NewErasureCoded(Config{K: 4, M: 2, RetainOffline: true}, v, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	var last WriteAck
	for i := 0; i < 3; i++ { // overwrites leave stale and acked versions behind
		last = Put(e, "c", "k", testPayload(4096))
		v.offline[vnet.Addr(i)] = true
	}
	clear(v.offline)
	o := e.objects["k"]
	if n := testing.AllocsPerRun(200, func() { e.Durable("k") }); n != 0 {
		t.Errorf("Durable allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { e.bestVersion(o.holders) }); n != 0 {
		t.Errorf("bestVersion allocates %v times per call, want 0", n)
	}
	read := func() {
		if res, ok := Get(e, "c", "k"); !ok || len(res.Data) != 4096 {
			t.Fatalf("read: ok=%v, %d bytes", ok, len(res.Data))
		}
	}
	read() // grow the scratch slices once
	if n := testing.AllocsPerRun(200, read); n != 0 {
		t.Errorf("intact Read allocates %v times per call, want 0", n)
	}
	// Two data fragments dark: the inversion allocates its survivor lists
	// (2), one encode row per survivor (4) and the inverse with its rows
	// (1 + 4); then two rebuilt shards and Join's copy.
	lost := 0
	for _, h := range o.holders {
		for _, f := range h.frags {
			if f.version == last.Version && f.index < 2 {
				v.offline[h.addr] = true
				lost++
			}
		}
	}
	if lost != 2 {
		t.Fatalf("took %d data fragments offline, want 2", lost)
	}
	const inversion = 2 + 4 + 1 + 4
	if n := testing.AllocsPerRun(200, read); n != inversion+2+1 {
		t.Errorf("degraded Read allocates %v times per call, want %d (inversion %d + 2 rebuilt shards + Join)", n, inversion+2+1, inversion)
	}
	clear(v.offline)
	for _, size := range []int{4096, 4097, 3} { // aligned, ragged, shorter than K
		data := testPayload(size)
		if n := testing.AllocsPerRun(200, func() { Put(e, "c", "k", data) }); n != 3 {
			t.Errorf("Write of %d bytes allocates %v times per call, want 3 (shard headers, one backing array, Placed)", size, n)
		}
	}
}

// TestErasureIntactReadNeedsEveryDataWindow: the written slice comes back
// only while all K data indices are live as the writer's own windows.
// Neither K fragments that are not K data indices (a member holding two,
// parity standing in for data) nor a repaired copy of a data fragment
// may pass for the object: those reads rebuild and join into fresh
// storage, and return the same bytes.
func TestErasureIntactReadNeedsEveryDataWindow(t *testing.T) {
	sameSlice := func(a, b []byte) bool { return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] }
	read := func(t *testing.T, e *ErasureCoded, want []byte) []byte {
		t.Helper()
		res, ok := Get(e, "c", "k")
		if !ok || !bytes.Equal(res.Data, want) {
			t.Fatalf("read: ok=%v, %d bytes, want the %d written", ok, len(res.Data), len(want))
		}
		return res.Data
	}
	t.Run("members holding two fragments", func(t *testing.T) {
		// Three members under (4, 2): member j holds indices j and j+3.
		v := newTestView(3)
		e, err := NewErasureCoded(Config{K: 4, M: 2, FragAck: 3, RetainOffline: true}, v, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		data := testPayload(4096)
		if ack := Put(e, "c", "k", data); !ack.Acked {
			t.Fatalf("write: %+v", ack)
		}
		if got := read(t, e, data); !sameSlice(got, data) {
			t.Error("intact read did not return the written slice")
		}
		v.offline[2] = true // indices 2 and 5 gone: four fragments live, three of them data
		if got := read(t, e, data); sameSlice(got, data) {
			t.Error("read with data index 2 dark returned the written slice: four live fragments passed for four data windows")
		}
	})
	t.Run("repaired data fragment", func(t *testing.T) {
		v := newTestView(8)
		e, err := NewErasureCoded(Config{K: 4, M: 2}, v, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		data := testPayload(4096)
		ack := Put(e, "c", "k", data)
		if !ack.Acked {
			t.Fatalf("write: %+v", ack)
		}
		var gone vnet.Addr
		for _, h := range e.objects["k"].holders {
			if h.frags[0].index == 1 {
				gone = h.addr
			}
		}
		e.Forget(gone)
		if created := Fix(e); created != 1 {
			t.Fatalf("repair created %d fragments, want 1", created)
		}
		for _, h := range e.objects["k"].holders {
			for _, f := range h.frags {
				if f.index == 1 && (f.obj != nil || !bytes.Equal(f.data, data[1024:2048])) {
					t.Fatalf("repaired data fragment: obj set = %v, bytes equal = %v; want no object reference and the shard's bytes",
						f.obj != nil, bytes.Equal(f.data, data[1024:2048]))
				}
			}
		}
		if got := read(t, e, data); sameSlice(got, data) {
			t.Error("read over a repaired data fragment returned the written slice")
		}
	})
	t.Run("ragged object", func(t *testing.T) {
		v := newTestView(6)
		e, err := NewErasureCoded(Config{K: 4, M: 2}, v, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		data := testPayload(4097) // the last data shard is a padded copy
		if ack := Put(e, "c", "k", data); !ack.Acked {
			t.Fatalf("write: %+v", ack)
		}
		if got := read(t, e, data); sameSlice(got, data) {
			t.Error("read of a ragged object returned the written slice though its last data shard is a copy")
		}
	})
}
