// Package sim provides the deterministic discrete-event simulation kernel
// that the whole vehicular-cloud stack runs on. A Kernel owns a virtual
// clock and a priority queue of scheduled events; entities schedule
// callbacks at future virtual times and the kernel dispatches them in
// (time, sequence) order, so a run with a fixed seed is fully reproducible.
//
// The kernel is intentionally single-goroutine: all model code executes in
// the caller's goroutine and no locking is required inside models. This is
// the standard architecture for network simulators (ns-3, OMNeT++) and
// keeps the hot path allocation-light: fired and cancelled events are
// recycled through a freelist, and the AtArg/AfterArg variants let callers
// schedule pooled callback state without allocating a closure per event.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time = time.Duration

// Event is a scheduled callback. Events are recycled through the kernel's
// freelist once fired or cancelled; gen disambiguates incarnations so a
// stale EventID held across a recycle can never cancel the wrong event.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among equal timestamps
	fn    func()
	argFn func(any) // alternative callback form (AtArg); nil when fn is set
	arg   any
	index int    // heap index, -1 when popped/cancelled
	gen   uint32 // incremented every time the event is recycled
}

// EventID identifies a scheduled event so it can be cancelled. The
// generation tag makes IDs safe to hold indefinitely: once the event fires
// or is cancelled its slot may be reused for a new event, and the stale ID
// simply stops matching.
type EventID struct {
	ev  *event
	gen uint32
}

// Pending reports whether the event is still scheduled (not yet fired
// and not cancelled).
func (id EventID) Pending() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.index >= 0
}

// before reports whether ev fires ahead of o: earlier time first, FIFO
// (lower seq) among equal timestamps. seq is unique, so the order is
// total and the pop sequence does not depend on the heap's shape.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventQueue is a binary min-heap of events ordered by before, with each
// event's position kept in its index field so Cancel can remove from the
// middle. It is typed on *event rather than built on container/heap: the
// queue sits under every scheduled and fired event, and the interface
// dispatch and any-boxing of heap.Interface cost more there than the
// sifting itself. Sifts move a hole instead of swapping.
type eventQueue []*event

// up places ev at hole i or above, shifting later ancestors down.
func (q eventQueue) up(i int, ev *event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// down places ev at hole i or below, shifting earlier children up.
func (q eventQueue) down(i int, ev *event) {
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(ev) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = ev
	ev.index = i
}

// push adds ev to the queue.
//
//vcloudlint:hotpath once per scheduled event; growth of the backing array is amortized by the receiver-owned slice
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event at position i out of the queue (i == 0 pops the
// earliest) and returns it with index -1.
//
//vcloudlint:hotpath once per fired or cancelled event
func (q *eventQueue) remove(i int) *event {
	h := *q
	ev := h[i]
	ev.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i < n {
		// Refill the hole with the former last leaf: it belongs below i
		// unless it came from another subtree and precedes i's parent.
		if i > 0 && last.before(h[(i-1)/2]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	return ev
}

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop rather than by exhausting events or reaching the horizon.
var ErrStopped = errors.New("sim: stopped")

// Kernel is the discrete-event simulation engine.
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventQueue
	free    []*event // recycled events; bounds allocation to peak concurrency
	rng     *rand.Rand
	seed    int64
	stopped bool
	// processed counts dispatched events, exposed for tests and reports.
	processed uint64
	// runWall accumulates real time spent inside Run/Step; the sharded
	// kernel reads it per window for its busy and critical-path walls.
	runWall time.Duration
}

// NewKernel creates a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// Processed returns the number of events dispatched so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return len(k.queue) }

// WallTime returns the cumulative real time spent dispatching events
// inside Run and Step.
func (k *Kernel) WallTime() time.Duration { return k.runWall }

// RNG returns the kernel's random source. Model code must draw all
// randomness from here (or from streams derived via NewStream) so runs are
// reproducible.
func (k *Kernel) RNG() *rand.Rand { return k.rng }

// NewStream returns an independent random stream labelled by name. Distinct
// names yield decorrelated streams that are stable across runs with the
// same kernel seed, which lets one subsystem add random draws without
// perturbing another subsystem's stream.
func (k *Kernel) NewStream(name string) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(k.seed, name)))
}

// SubSeed derives the seed of the named substream of seed — the same
// derivation NewStream uses. It exists so components that need a whole
// child kernel rather than a stream (the sharded kernel seeds one kernel
// per shard) stay on the one labelled-derivation scheme.
func SubSeed(seed int64, name string) int64 {
	return seed ^ int64(fnv64(name))
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// alloc takes an event from the freelist (or allocates the first time) and
// initializes it for scheduling at t. The (time, seq) ordering contract is
// untouched by recycling: seq still increments once per scheduled event.
func (k *Kernel) alloc(t Time, fn func(), argFn func(any), arg any) *event {
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		//vcloudlint:allow hotalloc freelist cold start; amortized to zero once recycle refills free
		ev = new(event)
	}
	ev.at = t
	ev.seq = k.seq
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	k.seq++
	return ev
}

// recycle returns a fired or cancelled event to the freelist. Bumping gen
// invalidates every EventID issued for the previous incarnation; clearing
// the callback fields drops references so recycled events never pin model
// state for the GC.
//
//vcloudlint:hotpath runs once per fired event; feeds the freelist that keeps alloc allocation-free
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	k.free = append(k.free, ev)
}

func (k *Kernel) schedule(t Time, fn func(), argFn func(any), arg any) EventID {
	if t < k.now {
		t = k.now
	}
	ev := k.alloc(t, fn, argFn, arg)
	k.queue.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) runs the event at the current time instead, preserving event
// ordering. The returned EventID can be passed to Cancel.
//
//vcloudlint:hotpath every scheduled event funnels through here; measured by BenchmarkSchedule AllocsPerRun
func (k *Kernel) At(t Time, fn func()) EventID {
	if fn == nil {
		return EventID{}
	}
	return k.schedule(t, fn, nil, nil)
}

// AtArg schedules fn(arg) to run at absolute virtual time t. It is the
// allocation-light form of At for hot paths: a caller that reuses a pooled
// arg and a package-level fn schedules events with zero heap allocations,
// where At would allocate a closure per call.
//
//vcloudlint:hotpath the allocation-light scheduling form exists for hot paths; it must stay allocation-free
func (k *Kernel) AtArg(t Time, fn func(any), arg any) EventID {
	if fn == nil {
		return EventID{}
	}
	return k.schedule(t, nil, fn, arg)
}

// After schedules fn to run d from now.
//
//vcloudlint:hotpath relative scheduling used by protocol timers on every frame
func (k *Kernel) After(d Time, fn func()) EventID {
	return k.At(k.now+d, fn)
}

// AfterArg schedules fn(arg) to run d from now (see AtArg).
//
//vcloudlint:hotpath per-frame delivery scheduling in radio rides on this form
func (k *Kernel) AfterArg(d Time, fn func(any), arg any) EventID {
	return k.AtArg(k.now+d, fn, arg)
}

// Every schedules fn to run every period, starting after the first period.
// It returns a Ticker that can be stopped. period must be positive.
func (k *Kernel) Every(period Time, fn func()) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period must be positive, got %v", period)
	}
	if fn == nil {
		return nil, errors.New("sim: ticker callback must not be nil")
	}
	t := &Ticker{k: k, period: period, fn: fn}
	t.schedule()
	return t, nil
}

// Ticker repeats a callback at a fixed virtual period until stopped.
type Ticker struct {
	k       *Kernel
	period  Time
	fn      func()
	pending EventID
	stopped bool
}

// tickerFire is the shared arg-carrying tick callback: scheduling via
// AfterArg with the *Ticker as the argument keeps a steady-state ticker
// allocation-free (a closure per tick would defeat the event freelist).
func tickerFire(a any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

func (t *Ticker) schedule() {
	t.pending = t.k.AfterArg(t.period, tickerFire, t)
}

// Stop halts the ticker. It is safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.k.Cancel(t.pending)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// actually removed.
func (k *Kernel) Cancel(id EventID) bool {
	if !id.Pending() {
		return false
	}
	k.recycle(k.queue.remove(id.ev.index))
	return true
}

// Stop makes Run return ErrStopped after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// fire dispatches one popped event. The event is recycled before its
// callback runs — it is already off the heap, the callback is copied out,
// and recycling first keeps the freelist hot when callbacks schedule
// follow-up events.
func (k *Kernel) fire(ev *event) {
	k.now = ev.at
	k.processed++
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	k.recycle(ev)
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
}

// Run dispatches events until the queue is empty or the horizon is reached.
// The clock is left at the time of the last dispatched event (or at horizon
// if the horizon cut the run short). A zero or negative horizon means "run
// until the queue drains".
func (k *Kernel) Run(horizon Time) error {
	k.stopped = false
	start := time.Now()
	defer func() { k.runWall += time.Since(start) }()
	for len(k.queue) > 0 {
		if k.stopped {
			return ErrStopped
		}
		next := k.queue[0]
		if horizon > 0 && next.at > horizon {
			k.now = horizon
			return nil
		}
		k.queue.remove(0)
		k.fire(next)
	}
	if horizon > 0 && k.now < horizon {
		k.now = horizon
	}
	return nil
}

// RunBefore dispatches every event with at < limit and leaves the clock at
// limit. It is the windowed form of Run used by the sharded kernel: windows
// are half-open, so an event scheduled at exactly limit (the earliest
// timestamp a conservative cross-shard injection may carry) fires in the
// next window, after the barrier has merged all injections in their fixed
// order. Events the window does not reach stay queued.
func (k *Kernel) RunBefore(limit Time) error {
	k.stopped = false
	start := time.Now()
	defer func() { k.runWall += time.Since(start) }()
	for len(k.queue) > 0 {
		if k.stopped {
			return ErrStopped
		}
		next := k.queue[0]
		if next.at >= limit {
			break
		}
		k.queue.remove(0)
		k.fire(next)
	}
	if k.now < limit {
		k.now = limit
	}
	return nil
}

// NextEventTime returns the timestamp of the earliest pending event. The
// boolean is false when no event is queued.
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// Step dispatches exactly one event if any is pending, and reports whether
// an event was dispatched.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	start := time.Now()
	k.fire(k.queue.remove(0))
	k.runWall += time.Since(start)
	return true
}
