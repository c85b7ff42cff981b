package metrics

import (
	"fmt"
	"math"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[0]
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	return h.samples[len(h.samples)-1]
}

// Stddev returns the population standard deviation, or 0 with fewer than
// two samples.
func (h *Histogram) Stddev() float64 {
	n := len(h.samples)
	if n < 2 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples but keeps capacity.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sum = 0
	h.sorted = false
}

// Summary is a point-in-time digest of a histogram, built only by the tests.
type Summary struct {
	Count          int
	Mean, P50, P95 float64
	P99, Min, Max  float64
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f", s.Count, s.Mean, s.P50, s.P95, s.P99)
}

// Summarize returns the digest of h.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// AddRowf appends a row formatting each value with %v, floats with %.2f
// and percentages via the Pct helper.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		case string:
			row = append(row, v)
		default:
			row = append(row, fmt.Sprintf("%v", v))
		}
	}
	t.AddRow(row...)
}
