package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer, or one callback
// a layer made into the benchmark. Times are host nanoseconds since the
// tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Op     int64  `json:"op"` // operation id shared by the spans of one op; -1 when none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. The simulator is single-threaded, so
// the span that is open when another begins is its cause: a stack gives
// the parent. A nil *tracer records nothing, which is how untraced runs
// pay only a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, op int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the parent
// and their union is taken, so nested and overlapping children are never
// subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, x := range clipped {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count  int
	TotalS float64 // summed durations
	SelfS  float64 // summed self times
	P50Ns  float64 // median duration
}

// summarize groups spans by name.
func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	out := make(map[string]spanSummary)
	for i, s := range spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalS += float64(s.End-s.Start) / 1e9
		sum.SelfS += float64(self[i]) / 1e9
		out[s.Name] = sum
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	for name, d := range durs {
		sum := out[name]
		sum.P50Ns = median(d)
		out[name] = sum
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span log: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return nil
}
