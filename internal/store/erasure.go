// Reed–Solomon-style systematic erasure code over GF(2^8), stdlib
// only. An object is split into K data shards; M parity shards are
// derived through a Cauchy matrix, so ANY K of the K+M shards
// reconstruct the original bytes exactly. Everything is deterministic:
// the same (K, M, data) always yields the same shards.
//
// The field is GF(2^8) with the AES-adjacent primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d) and generator 2. Exp/log tables built once
// at init serve the scalar arithmetic (matrix rows and inversion) and
// seed a 256×256 product table; every loop over shard bytes is one of
// the kernel pair mulAdd/mulAdd4, which read the 256-byte table row of
// each coefficient.
// The encode matrix is the identity stacked on the Cauchy block
// C[i][j] = 1/(x_i ⊕ y_j) with x_i = K+i and y_j = j — all x distinct
// from all y, so every square submatrix of the Cauchy block is
// invertible, which is exactly the MDS property the "any K shards"
// guarantee needs. Decoding picks the first K surviving rows, inverts
// that K×K submatrix with Gaussian elimination, and multiplies back.
package store

import (
	"fmt"
	"slices"
)

// gfExp and gfLog are the GF(2^8) exponent/log tables for generator 2
// modulo 0x11d. gfExp is doubled so gfMul can skip the mod-255 fold.
// gfProd[c][x] is c·x: 64 KB in all, but one mulAdd call reads a single
// 256-byte row, which stays in L1 beside the shard bytes streaming by.
var (
	gfExp  [510]byte
	gfLog  [256]byte
	gfProd [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfExp[i+255] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for c := range gfProd {
		for x := range gfProd[c] {
			gfProd[c][x] = gfMul(byte(c), byte(x))
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv inverts a nonzero field element.
func gfInv(a byte) byte { return gfExp[255-int(gfLog[a])] }

// mulAdd adds c·src to dst bytewise over GF(2^8): dst[i] ^= c·src[i].
// src must be at least as long as dst.
//
//vcloudlint:hotpath the loop over shard bytes for the K mod 4 sources mulAdd4 leaves, and the matrix inversion's row kernel
func mulAdd(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	row := &gfProd[c]
	src = src[:len(dst)]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// mulAdd4 is mulAdd fused over four sources: dst[i] ^= c0·s0[i] ^
// c1·s1[i] ^ c2·s2[i] ^ c3·s3[i], reading and writing dst once for the
// four instead of once each. The four table rows are 1 KB and stay in L1.
// Every source must be at least as long as dst.
//
//vcloudlint:hotpath the loop over shard bytes: K/4 passes per parity row and per rebuilt shard
func mulAdd4(dst, s0, s1, s2, s3 []byte, c0, c1, c2, c3 byte) {
	r0, r1, r2, r3 := &gfProd[c0], &gfProd[c1], &gfProd[c2], &gfProd[c3]
	s0, s1, s2, s3 = s0[:len(dst)], s1[:len(dst)], s2[:len(dst)], s3[:len(dst)]
	for i := range dst {
		dst[i] ^= r0[s0[i]] ^ r1[s1[i]] ^ r2[s2[i]] ^ r3[s3[i]]
	}
}

// combine accumulates Σ coef[j]·srcs[j] into dst, which must start
// zeroed: four sources a pass, the K mod 4 left over one at a time.
func combine(dst, coef []byte, srcs [][]byte) {
	j := 0
	for ; j+4 <= len(coef); j += 4 {
		mulAdd4(dst, srcs[j], srcs[j+1], srcs[j+2], srcs[j+3], coef[j], coef[j+1], coef[j+2], coef[j+3])
	}
	for ; j < len(coef); j++ {
		mulAdd(dst, srcs[j], coef[j])
	}
}

// encodeRow returns row r (0 <= r < k+m) of the systematic encode
// matrix in dst's storage (a fresh slice when dst is too small):
// identity for the first k rows, Cauchy below.
func encodeRow(dst []byte, k, r int) []byte {
	if cap(dst) < k {
		dst = make([]byte, 0, k)
	}
	dst = dst[:0]
	for j := 0; j < k; j++ {
		switch {
		case r < k:
			if r == j {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		default:
			// Cauchy: 1 / (x ⊕ y), x = k + (r-k) = r, y = j.
			dst = append(dst, gfInv(byte(r)^byte(j)))
		}
	}
	return dst
}

// validateKM rejects erasure parameters outside GF(2^8)'s reach.
func validateKM(k, m int) error {
	if k < 1 || m < 0 || k+m > 255 {
		return fmt.Errorf("store: erasure code needs 1 <= k, 0 <= m, k+m <= 255 (k=%d m=%d)", k, m)
	}
	return nil
}

// windows returns how many of the k data shards of an n-byte object are
// whole windows of the object itself: all k when k divides n, else the
// shards before the ragged one (none of an empty object).
func windows(k, n int) int {
	if n == 0 {
		return 0
	}
	return n / ((n + k - 1) / k)
}

// Encode splits data into k data shards plus m parity shards, each
// ceil(len(data)/k) bytes (data is zero-padded). Reassemble with Join;
// reconstruct missing shards with Decode.
//
// Encode copies as little as the padding allows: every data shard that
// lies wholly inside data IS that window of data (shards[i] aliases
// data[i*len:(i+1)*len]), so the caller must not modify data while the
// shards are in use; only a ragged last shard and all-padding shards
// are copies. Those and the m parity shards are carved out of one fresh
// backing array. Every shard is capped at its own length, so an append
// to one cannot spill into its neighbour, and all k+m are non-nil even
// when zero-length (Decode reads nil as "missing"). Encode never writes
// to data.
func Encode(k, m int, data []byte) ([][]byte, error) {
	if err := validateKM(k, m); err != nil {
		return nil, err
	}
	shardLen := (len(data) + k - 1) / k
	whole := windows(k, len(data))
	shards := make([][]byte, k+m)
	back := make([]byte, (k-whole+m)*shardLen)
	for i := range shards {
		if i < whole {
			shards[i] = data[i*shardLen : (i+1)*shardLen : (i+1)*shardLen]
			continue
		}
		lo := (i - whole) * shardLen
		shards[i] = back[lo : lo+shardLen : lo+shardLen]
		if i < k {
			copy(shards[i], data[min(i*shardLen, len(data)):])
		}
	}
	var row [255]byte // k <= 255: the matrix row stays on the stack
	for i := 0; i < m; i++ {
		combine(shards[k+i], encodeRow(row[:0], k, k+i), shards[:k])
	}
	return shards, nil
}

// Decode reconstructs every nil shard in place. shards must have
// length k+m; at least k entries must be non-nil and equally sized.
func Decode(k, m int, shards [][]byte) error {
	if err := validateKM(k, m); err != nil {
		return err
	}
	if len(shards) != k+m {
		return fmt.Errorf("store: Decode needs %d shard slots, got %d", k+m, len(shards))
	}
	if err := reconstruct(k, shards); err != nil {
		return err
	}
	// Re-derive any missing parity from the (now complete) data shards.
	var row [255]byte // k <= 255: the matrix row stays on the stack
	for i := k; i < len(shards); i++ {
		if shards[i] == nil {
			shards[i] = make([]byte, len(shards[0]))
			combine(shards[i], encodeRow(row[:0], k, i), shards[:k])
		}
	}
	return nil
}

// reconstruct rebuilds every nil data shard (the first k slots) in
// place and leaves missing parity missing: all a read needs, and the
// first half of Decode. At least k of the slots must be non-nil and
// equally sized.
func reconstruct(k int, shards [][]byte) error {
	have, shardLen := 0, -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return fmt.Errorf("store: shard %d has length %d, want %d", i, len(s), shardLen)
		}
		have++
	}
	if have < k {
		return fmt.Errorf("store: only %d of %d shards survive, need %d", have, len(shards), k)
	}
	if !slices.ContainsFunc(shards[:k], func(s []byte) bool { return s == nil }) {
		return nil
	}
	// Invert the submatrix of encode rows for the first k surviving
	// shards, then data = inv × survivors.
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
			combine(shards[i], inv[i], survivors)
		}
	}
	return nil
}

// invertMatrix returns the inverse of the square matrix a over GF(2^8)
// by Gauss–Jordan elimination. a is consumed as scratch.
func invertMatrix(a [][]byte) ([][]byte, error) {
	n := len(a)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("store: singular decode matrix (column %d)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale the pivot row to 1.
		if p := a[col][col]; p != 1 {
			pi := gfInv(p)
			for j := 0; j < n; j++ {
				a[col][j] = gfMul(a[col][j], pi)
				inv[col][j] = gfMul(inv[col][j], pi)
			}
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			c := a[r][col]
			mulAdd(a[r], a[col], c)
			mulAdd(inv[r], inv[col], c)
		}
	}
	return inv, nil
}

// Join reassembles the original length-byte object from the first k
// (data) shards.
func Join(k int, shards [][]byte, length int) ([]byte, error) {
	if k < 1 || len(shards) < k {
		return nil, fmt.Errorf("store: Join needs the %d data shards, got %d slots", k, len(shards))
	}
	out := make([]byte, 0, length)
	for i := 0; i < k && len(out) < length; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("store: data shard %d missing (Decode first)", i)
		}
		out = append(out, shards[i]...)
	}
	if len(out) < length {
		return nil, fmt.Errorf("store: shards hold %d bytes, want %d", len(out), length)
	}
	return out[:length], nil
}
