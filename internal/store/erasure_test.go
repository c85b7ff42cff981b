package store

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// testPayload returns n deterministic pseudo-random bytes (xorshift32).
// The golden digests below are pinned to this exact generator.
func testPayload(n int) []byte {
	data := make([]byte, n)
	x := uint32(2463534242)
	for i := range data {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		data[i] = byte(x >> 11)
	}
	return data
}

func mustEncode(t *testing.T, k, m int, data []byte) [][]byte {
	t.Helper()
	shards, err := Encode(k, m, data)
	if err != nil {
		t.Fatalf("Encode(%d,%d,%d bytes): %v", k, m, len(data), err)
	}
	if len(shards) != k+m {
		t.Fatalf("Encode returned %d shards, want %d", len(shards), k+m)
	}
	return shards
}

func TestErasureRoundTripAllErasures(t *testing.T) {
	data := []byte("the vehicular cloud stores this object across churning members")
	for _, km := range [][2]int{{1, 0}, {1, 3}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 4}} {
		k, m := km[0], km[1]
		orig := mustEncode(t, k, m, data)
		// Erase every possible single shard, and for m >= 2 a sliding
		// window of m shards — the worst legal loss.
		for lo := 0; lo <= k+m-m || lo == 0; lo++ {
			shards := make([][]byte, k+m)
			for i := range shards {
				shards[i] = bytes.Clone(orig[i])
			}
			for i := lo; i < lo+m && i < k+m; i++ {
				shards[i] = nil
			}
			if err := Decode(k, m, shards); err != nil {
				t.Fatalf("(%d,%d) erasing [%d,%d): %v", k, m, lo, lo+m, err)
			}
			for i := range shards {
				if !bytes.Equal(shards[i], orig[i]) {
					t.Fatalf("(%d,%d) erasing [%d,%d): shard %d differs after decode", k, m, lo, lo+m, i)
				}
			}
			got, err := Join(k, shards, len(data))
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("(%d,%d): joined data differs", k, m)
			}
			if m == 0 {
				break
			}
		}
	}
}

func TestErasureTooManyLosses(t *testing.T) {
	shards := mustEncode(t, 4, 2, []byte("abcdefgh"))
	shards[0], shards[2], shards[5] = nil, nil, nil // 3 losses > m=2
	if err := Decode(4, 2, shards); err == nil {
		t.Fatal("Decode reconstructed from fewer than k shards")
	}
}

func TestErasureDeterministic(t *testing.T) {
	data := []byte{0, 1, 2, 3, 255, 254, 100, 7, 7, 7, 9}
	a := mustEncode(t, 3, 2, data)
	b := mustEncode(t, 3, 2, data)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("shard %d differs between identical encodes", i)
		}
	}
}

func TestErasureEmptyAndTiny(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {42}, {1, 2}} {
		shards := mustEncode(t, 4, 2, data)
		shards[1] = nil
		shards[4] = nil
		if err := Decode(4, 2, shards); err != nil {
			t.Fatalf("%d bytes: %v", len(data), err)
		}
		got, err := Join(4, shards, len(data))
		if err != nil {
			t.Fatalf("Join %d bytes: %v", len(data), err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d bytes: round trip differs", len(data))
		}
	}
}

func TestErasureParamValidation(t *testing.T) {
	if _, err := Encode(0, 2, []byte("x")); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Encode(1, -1, []byte("x")); err == nil {
		t.Error("m=-1 accepted")
	}
	if _, err := Encode(200, 100, []byte("x")); err == nil {
		t.Error("k+m>255 accepted")
	}
	if err := Decode(4, 2, make([][]byte, 3)); err == nil {
		t.Error("wrong shard-slot count accepted")
	}
	shards := mustEncode(t, 2, 1, []byte("abcd"))
	shards[1] = shards[1][:1]
	if err := Decode(2, 1, shards); err == nil {
		t.Error("ragged shard lengths accepted")
	}
}

func TestGFTables(t *testing.T) {
	// Field sanity: a·inv(a) == 1 for every nonzero a, and
	// multiplication distributes over a spot-check triple.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	x, y, z := byte(0x53), byte(0xca), byte(0x11)
	if gfMul(x, y^z) != gfMul(x, y)^gfMul(x, z) {
		t.Error("multiplication does not distribute over addition")
	}
}

// TestMulAddMatchesGfMul checks the table kernel against the scalar
// log/exp multiply for every coefficient and every byte value, and at
// ragged lengths around the word and page sizes.
func TestMulAddMatchesGfMul(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for c := 0; c < 256; c++ {
		dst := make([]byte, 256)
		for i := range dst {
			dst[i] = byte(i * 7)
		}
		mulAdd(dst, all, byte(c))
		for x := range all {
			if want := byte(x*7) ^ gfMul(byte(c), byte(x)); dst[x] != want {
				t.Fatalf("mulAdd c=%d x=%d: got %d, want %d", c, x, dst[x], want)
			}
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 4097} {
		src := testPayload(n + 3) // longer than dst: the excess must be ignored
		for _, c := range []byte{0, 1, 2, 0x1d, 0xff} {
			dst := bytes.Repeat([]byte{0xa5}, n)
			mulAdd(dst, src, c)
			for i := range dst {
				if want := 0xa5 ^ gfMul(c, src[i]); dst[i] != want {
					t.Fatalf("mulAdd len=%d c=%d byte %d: got %d, want %d", n, c, i, dst[i], want)
				}
			}
		}
	}
}

// TestMulAdd4MatchesMulAdd checks the fused kernel against four calls of
// the single-source one: every coefficient in each of the four positions,
// ragged lengths around the word and page sizes, and sources longer than
// dst, whose excess must be ignored.
func TestMulAdd4MatchesMulAdd(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4097} {
		var srcs [4][]byte
		for j := range srcs {
			srcs[j] = testPayload(n + 3 + j)[j:] // four different streams, each longer than dst
		}
		coefs := [][4]byte{{0, 0, 0, 0}, {1, 2, 0x1d, 0xff}}
		if n <= 9 {
			for pos := 0; pos < 4; pos++ {
				for c := 0; c < 256; c++ {
					cs := [4]byte{3, 5, 7, 11}
					cs[pos] = byte(c)
					coefs = append(coefs, cs)
				}
			}
		}
		for _, cs := range coefs {
			got, want := bytes.Repeat([]byte{0xa5}, n), bytes.Repeat([]byte{0xa5}, n)
			mulAdd4(got, srcs[0], srcs[1], srcs[2], srcs[3], cs[0], cs[1], cs[2], cs[3])
			for j, c := range cs {
				mulAdd(want, srcs[j], c)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("mulAdd4 len=%d coefs=%v differs from four mulAdd calls", n, cs)
			}
		}
	}
}

// TestEncodeAliasesExactlyTheWholeShards pins Encode's storage layout: a
// data shard is a window of the input exactly when it lies wholly inside
// it, every other shard is fresh storage, all are non-nil and capped at
// their own length, and neither Encode nor a scribble on a shard it
// allocated touches the input.
func TestEncodeAliasesExactlyTheWholeShards(t *testing.T) {
	for _, tc := range []struct{ k, m, n, whole int }{
		{4, 2, 0, 0}, {4, 2, 1, 1}, {4, 2, 2, 2}, {4, 2, 3, 3}, {4, 2, 4, 4}, {4, 2, 5, 2},
		{4, 2, 7, 3}, {4, 2, 8, 4}, {4, 2, 4096, 4}, {4, 2, 4097, 3}, {5, 3, 9, 4}, {5, 0, 10, 5},
		{1, 3, 6, 1}, {3, 1, 1, 1},
	} {
		data := testPayload(tc.n)
		orig := bytes.Clone(data)
		shards := mustEncode(t, tc.k, tc.m, data)
		shardLen := (tc.n + tc.k - 1) / tc.k
		for i, s := range shards {
			if s == nil || len(s) != shardLen || cap(s) != shardLen {
				t.Fatalf("(%d,%d) of %d bytes: shard %d nil=%v len=%d cap=%d, want non-nil with len = cap = %d",
					tc.k, tc.m, tc.n, i, s == nil, len(s), cap(s), shardLen)
			}
			aliases := shardLen > 0 && (i+1)*shardLen <= tc.n && &s[0] == &data[i*shardLen]
			if aliases != (i < tc.whole) {
				t.Errorf("(%d,%d) of %d bytes: shard %d aliases the input = %v, want %v", tc.k, tc.m, tc.n, i, aliases, i < tc.whole)
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("(%d,%d) of %d bytes: Encode modified its input", tc.k, tc.m, tc.n)
		}
		for _, s := range shards[tc.whole:] { // ragged, padding and parity
			for j := range s {
				s[j] ^= 0xff
			}
			_ = append(s, 0xee)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("(%d,%d) of %d bytes: writing to a shard Encode allocated reached the input", tc.k, tc.m, tc.n)
		}
		for i := 0; i < tc.whole; i++ {
			_ = append(shards[i], 0xee) // cap == len: must reallocate, not spill into shard i+1
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("(%d,%d) of %d bytes: appending to a window shard spilled into its neighbour", tc.k, tc.m, tc.n)
		}
	}
}

// TestEncodeGoldenDigests pins Encode's output to FNV-1a digests taken
// from the byte-at-a-time log/exp implementation this kernel replaced:
// "same (K, M, data) ⇒ same shards" has to hold across rewrites of the
// arithmetic, not only between two calls of one build.
func TestEncodeGoldenDigests(t *testing.T) {
	golden := []struct {
		k, m, n int
		want    uint64
	}{
		{4, 2, 0, 0x77e875b1c7b6a32d},
		{4, 2, 1, 0x76f77bccf52f5365},
		{4, 2, 37, 0x3a2f4a9227bc6289},
		{4, 2, 4097, 0x9ad94dec856250a3},
		{4, 2, 32771, 0x0db08a84716d381b},
		{10, 4, 0, 0x2a3129a9c3cff60d},
		{10, 4, 1, 0x6e682018a3493a36},
		{10, 4, 37, 0x9d2657a3ac3f088b},
		{10, 4, 4097, 0xbb8de27b10d2102f},
		{10, 4, 32771, 0x1798241712f22ddd},
		{1, 0, 0, 0xd94d12186c0f2fb7},
		{1, 0, 1, 0xad2ba3774799c81f},
		{1, 0, 37, 0xd51a1b18719514ff},
		{1, 0, 4097, 0xaa9deae1c51bba2f},
		{1, 0, 32771, 0xf5734cc3a89f8a68},
		{200, 55, 0, 0xd7987437f26a596f},
		{200, 55, 1, 0x2022675078021a54},
		{200, 55, 37, 0x8d99b1863a9c012f},
		{200, 55, 4097, 0x49e4a27c0f64195c},
		{200, 55, 32771, 0xb70744110bf0b574},
	}
	for _, g := range golden {
		h := fnv.New64a()
		for _, s := range mustEncode(t, g.k, g.m, testPayload(g.n)) {
			h.Write([]byte{byte(len(s)), byte(len(s) >> 8), byte(len(s) >> 16)})
			h.Write(s)
		}
		if got := h.Sum64(); got != g.want {
			t.Errorf("Encode(%d,%d) of %d bytes: digest %#016x, want %#016x", g.k, g.m, g.n, got, g.want)
		}
	}
}
