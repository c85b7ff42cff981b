package main

import (
	"math/rand"
	"time"
)

// stream returns the generator of one named input family of a seed.
// Families draw from separate streams so that resizing one input does not
// shift another.
func stream(seed int64, name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(seedHash(seed, name))))
}

func seedHash(seed int64, name string) fnv64 {
	h := newFNV()
	h.u64(uint64(seed))
	h.str(name)
	return h
}

// subSeed derives the seed handed to the program for one named purpose
// (fleet placement, TA key material).
func subSeed(seed int64, name string) int64 {
	h := seedHash(seed, name)
	// Scenario constructors treat 0 as "use the default seed".
	if s := int64(h >> 1); s != 0 {
		return s
	}
	return 1
}

// count scales a full-size count, never below floor.
func (e *env) count(full, floor int) int {
	n := int(float64(full)*e.scale + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// span scales a full-size virtual duration, never below floor.
func (e *env) span(full, floor time.Duration) time.Duration {
	d := time.Duration(float64(full) * e.scale)
	if d < floor {
		d = floor
	}
	return d
}
