// Package ok regression-tests nomaporder's sanctioned idioms — each of
// these produced a false positive against the real tree at some point and
// must stay silent.
package ok

import (
	"crypto/hmac"
	"crypto/sha256"
	"sort"
)

// collectThenSort is the canonical repair: collect in map order, sort,
// then consume.
func collectThenSort(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// sliceAlias sorts the appended tail through an alias, the
// vnet.Node.Neighbors idiom: dst may arrive non-empty, so only the added
// window is sorted.
func sliceAlias(m map[int]string, dst []int) []int {
	start := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	added := dst[start:]
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	return dst
}

// loopLocal appends to a slice declared inside the body — a fresh slice
// per map entry, the routing.AODV.expirePending idiom.
func loopLocal(m map[int][]int) {
	for k, queued := range m {
		keep := queued[:0]
		for _, v := range queued {
			if v > 0 {
				keep = append(keep, v)
			}
		}
		m[k] = keep
	}
}

// loopLocalWriter writes through a hash constructed inside the body — one
// MAC per member, returning the one whose tag matches.
func loopLocalWriter(m map[string][]byte, nonce, tag []byte) string {
	for id, secret := range m {
		mac := hmac.New(sha256.New, secret)
		mac.Write(nonce)
		if hmac.Equal(mac.Sum(nil), tag) {
			return id
		}
	}
	return ""
}

// mapToMap copies into another map — no order to leak.
func mapToMap(src, dst map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// accumulate folds into an integer: exact, so order-insensitive.
func accumulate(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// loopLocalFloat folds into a float declared inside the body — a fresh
// accumulator per map entry.
func loopLocalFloat(m map[string][]float64, out map[string]float64) {
	for k, vs := range m {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		out[k] = sum
	}
}

// sortedKeysFloat sums a float over sorted keys: the range over the map
// only collects, the fold ranges over a slice.
func sortedKeysFloat(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}
