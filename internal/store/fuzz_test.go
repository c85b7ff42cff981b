package store_test

import (
	"bytes"
	"slices"
	"testing"

	"vcloud/internal/store"
)

// FuzzErasureRoundTrip: for any payload and any (k, m) inside GF(2^8)'s
// reach, encoding then erasing any mask of at most m shards must decode
// back to the exact original bytes — the MDS "any K of K+M" guarantee
// the storage service's durability threshold is built on. Encode aliases
// its input, so the input must come through unmodified; and the
// data-only rebuild a read uses must produce Decode's data shards.
func FuzzErasureRoundTrip(f *testing.F) {
	f.Add([]byte("vehicular cloud storage"), uint8(4), uint8(2), uint16(0b110000))
	f.Add([]byte{}, uint8(1), uint8(0), uint16(0))
	f.Add([]byte{0xff}, uint8(8), uint8(4), uint16(0b1111))
	f.Add(bytes.Repeat([]byte{0xab, 0x00, 0x11}, 100), uint8(3), uint8(3), uint16(0b111))
	f.Fuzz(func(t *testing.T, data []byte, k8, m8 uint8, mask uint16) {
		k := int(k8)%16 + 1
		m := int(m8) % 9
		orig := bytes.Clone(data)
		shards, err := store.Encode(k, m, data)
		if err != nil {
			t.Fatalf("Encode(%d,%d) failed: %v", k, m, err)
		}
		if len(shards) != k+m {
			t.Fatalf("Encode returned %d shards, want %d", len(shards), k+m)
		}
		// Erase shards per the mask, most-significant-bit order, but never
		// more than m: within the erasure budget the decode MUST succeed.
		erased := 0
		for i := 0; i < k+m && erased < m; i++ {
			if mask&(1<<i) != 0 {
				shards[i] = nil
				erased++
			}
		}
		dataOnly := slices.Clone(shards)
		if err := store.Reconstruct(k, dataOnly); err != nil {
			t.Fatalf("reconstruct(%d) with %d erased failed: %v", k, erased, err)
		}
		if err := store.Decode(k, m, shards); err != nil {
			t.Fatalf("Decode(%d,%d) with %d erased failed: %v", k, m, erased, err)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(dataOnly[i], shards[i]) {
				t.Fatalf("data shard %d: reconstruct and Decode disagree", i)
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("Encode, reconstruct or Decode modified the input")
		}
		got, err := store.Join(k, shards, len(data))
		if err != nil {
			t.Fatalf("Join failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(data))
		}
		// Determinism: re-encoding the recovered payload must reproduce
		// every shard bit-for-bit, parity included.
		again, err := store.Encode(k, m, got)
		if err != nil {
			t.Fatalf("re-Encode failed: %v", err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], again[i]) {
				t.Fatalf("shard %d not reproduced after decode", i)
			}
		}
	})
}
