package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

type opState uint8

const (
	opPending opState = iota // never finished: counts as failed at drain
	opOK
	opFailed // failed, refused or wrong-valued
)

// op is one operation of a workload's open-loop schedule.
type op struct {
	kind     string
	due      time.Duration // scheduled submit instant, virtual
	deadline time.Duration // relative to due
	done     time.Duration // completion instant, virtual
	state    opState
	fired    int    // outcome reports received; more than one is a breach
	value    uint64 // outcome value, folded into the digest
	noLat    bool   // finished instantly in virtual time: kept out of the latency samples
}

// opLog is the ledger of a workload's operations in submit order. Every
// op is timed from its scheduled submit instant, which the generator
// cannot miss: submissions are kernel events at exact virtual times.
type opLog struct {
	ops      []op
	breaches []string
}

// add schedules an op and returns its id.
func (l *opLog) add(kind string, due, deadline time.Duration) int {
	l.ops = append(l.ops, op{kind: kind, due: due, deadline: deadline})
	return len(l.ops) - 1
}

// finish records the single outcome of an op. A second report for the
// same op is a correctness breach (a callback fired twice).
func (l *opLog) finish(id int, now time.Duration, ok bool, value uint64) {
	o := &l.ops[id]
	o.fired++
	if o.fired > 1 {
		l.breach("op %d (%s) reported %d outcomes", id, o.kind, o.fired)
		return
	}
	o.done, o.value = now, value
	if ok {
		o.state = opOK
	} else {
		o.state = opFailed
	}
}

func (l *opLog) breach(format string, args ...any) {
	l.breaches = append(l.breaches, fmt.Sprintf(format, args...))
}

// opSummary is what the end-to-end virtual-time metrics derive from.
type opSummary struct {
	Attempted int
	OK        int
	OnTime    int       // OK and done within the deadline
	Latencies []float64 // ms, of OK ops with a virtual latency, ascending
}

func (l *opLog) summary() opSummary {
	s := opSummary{Attempted: len(l.ops)}
	for i := range l.ops {
		o := &l.ops[i]
		if o.state != opOK {
			continue
		}
		s.OK++
		lat := o.done - o.due
		if lat <= o.deadline {
			s.OnTime++
		}
		if !o.noLat {
			s.Latencies = append(s.Latencies, float64(lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(s.Latencies)
	return s
}

// latenciesOf returns the ascending virtual latencies (ms) of the OK ops
// of one kind.
func (l *opLog) latenciesOf(kind string) []float64 {
	var out []float64
	for i := range l.ops {
		if o := &l.ops[i]; o.state == opOK && o.kind == kind && !o.noLat {
			out = append(out, float64(o.done-o.due)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func newFNV() fnv64 { return fnvOffset }

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv64(v & 0xff)
		*h *= fnvPrime
		v >>= 8
	}
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= fnv64(s[i])
		*h *= fnvPrime
	}
	*h ^= 0xff
	*h *= fnvPrime
}

// digest folds the ordered op outcomes into one number.
func (l *opLog) digest() uint64 {
	h := newFNV()
	for i := range l.ops {
		o := &l.ops[i]
		h.u64(uint64(i))
		h.u64(uint64(o.state))
		h.u64(uint64(o.done - o.due))
		h.u64(o.value)
	}
	return uint64(h)
}

// modelDigest folds a repetition's op digest and its exact counters into
// the number two runs of one seed on one commit must agree on.
func modelDigest(opDigest uint64, counters map[string]float64) uint64 {
	h := newFNV()
	h.u64(opDigest)
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.str(name)
		h.u64(math.Float64bits(counters[name]))
	}
	return uint64(h)
}
