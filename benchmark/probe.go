package main

import "time"

// perCallNs runs fn, which makes n calls of the probed function, and
// returns host nanoseconds per call.
func perCallNs(n int, fn func()) float64 {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / float64(n)
}
