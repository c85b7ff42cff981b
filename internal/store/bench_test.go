package store

import (
	"fmt"
	"testing"

	"vcloud/internal/vnet"
)

// The benchmarks use the parked_kv_offload shape: a (4, 2) code over
// 32 KB objects on a fleet larger than K+M.
const benchObjBytes = 32 << 10

var (
	sinkShards [][]byte
	sinkRead   ReadResult
	sinkInt    int
)

func BenchmarkMulAdd4(b *testing.B) {
	const shard = benchObjBytes / 4
	src := testPayload(benchObjBytes)
	dst := make([]byte, shard)
	b.SetBytes(benchObjBytes)
	for i := 0; i < b.N; i++ {
		mulAdd4(dst, src[:shard], src[shard:2*shard], src[2*shard:3*shard], src[3*shard:], 0x1d, 0x53, 0xca, 0xff)
	}
	sinkInt = int(dst[0])
}

func BenchmarkEncode(b *testing.B) {
	data := testPayload(benchObjBytes)
	b.SetBytes(benchObjBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkShards, _ = Encode(4, 2, data)
	}
}

func BenchmarkDecodeTwoLost(b *testing.B) {
	orig, _ := Encode(4, 2, testPayload(benchObjBytes))
	shards := make([][]byte, len(orig))
	b.SetBytes(benchObjBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(shards, orig)
		shards[1], shards[3] = nil, nil // two data shards: the full inversion path
		if err := Decode(4, 2, shards); err != nil {
			b.Fatal(err)
		}
	}
	sinkShards = shards
}

// benchEC returns an erasure-coded store over a 12-member fleet holding
// n 32 KB objects under the returned keys, each overwritten once so
// members carry the acked version beside its predecessor, as they do in
// steady state.
func benchEC(b *testing.B, n int) (*ErasureCoded, *testView, []Key) {
	b.Helper()
	v := newTestView(12)
	e, err := NewErasureCoded(Config{K: 4, M: 2, RetainOffline: true}, v, &Stats{})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("key-%04d", i))
	}
	data := testPayload(benchObjBytes)
	for round := 0; round < 2; round++ {
		for _, k := range keys {
			if ack := Put(e, "c", k, data); !ack.Acked {
				b.Fatalf("setup write of %s not acked: %+v", k, ack)
			}
		}
	}
	return e, v, keys
}

func BenchmarkECWrite(b *testing.B) {
	e, _, keys := benchEC(b, 64)
	data := testPayload(benchObjBytes)
	b.SetBytes(benchObjBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Put(e, "c", keys[i%len(keys)], data)
	}
}

// benchECRead reads round-robin over 64 keys with the given members dark.
func benchECRead(b *testing.B, dark ...vnet.Addr) {
	e, v, keys := benchEC(b, 64)
	for _, a := range dark {
		v.offline[a] = true
	}
	b.SetBytes(benchObjBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRead, _ = Get(e, "c", keys[i%len(keys)])
	}
}

func BenchmarkECReadIntact(b *testing.B) { benchECRead(b) }

// BenchmarkECReadDegraded reads with one member of twelve dark: the keys
// whose data fragment it holds (a third of them) rebuild that shard and
// join.
func BenchmarkECReadDegraded(b *testing.B) { benchECRead(b, 0) }

// BenchmarkECRepairPass times one repair pass over 256 keys after one
// member departed for good: the pass audits every key and regenerates
// the departed member's fragment of each key it held.
func BenchmarkECRepairPass(b *testing.B) {
	e, v, _ := benchEC(b, 256)
	gone := vnet.Addr(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v.offline[gone] = true
		e.Forget(gone)
		b.StartTimer()
		sinkInt = Fix(e)
		b.StopTimer()
		v.offline[gone] = false
		gone = (gone + 1) % vnet.Addr(len(v.members))
		b.StartTimer()
	}
}

func BenchmarkDurable(b *testing.B) {
	e, _, keys := benchEC(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := e.Durable(keys[i%len(keys)])
		sinkInt = int(v)
	}
}
