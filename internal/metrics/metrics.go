// Package metrics provides the measurement primitives the experiment
// harness uses: counters, streaming histograms with percentile queries,
// rate meters over virtual time, and a plain-text table renderer that
// produces the paper-style rows in EXPERIMENTS.md.
//
// Everything here is deliberately simple and allocation-conscious; the
// simulator records millions of samples per run.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(delta int) {
	if delta > 0 {
		c.n += uint64(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Ratio returns c / total as a float, or 0 when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// Histogram collects float64 samples and answers mean / percentile
// queries. Samples are kept exactly (the simulator's sample counts are
// modest, and exactness makes tests deterministic); Reset reuses the
// backing array.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Observe records a sample. NaN samples are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. With no samples it returns 0.
func (h *Histogram) Percentile(p float64) float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	h.ensureSorted()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}
