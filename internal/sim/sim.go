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
// The layout is kept to 64 bytes (one cache line, one allocator size
// class): the queue touches every event it orders.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among equal timestamps
	fn    func()
	argFn func(any) // alternative callback form (AtArg); nil when fn is set
	arg   any
	next  *event // the event scheduled right after this one for the same instant, if it joined this run
	index int32  // heap slot of a run's head, or one of the sentinels below
	gen   uint32 // incremented every time the event leaves the schedule
}

// Values of event.index for an event that is not at the head of a run.
const (
	unqueued  int32 = -1 // fired, cancelled or never scheduled
	chained   int32 = -2 // scheduled, linked behind the head of its run
	tombstone int32 = -3 // cancelled while chained; recycled when its run reaches it
)

// EventID identifies a scheduled event so it can be cancelled. The
// generation tag makes IDs safe to hold indefinitely: once the event fires
// or is cancelled its slot may be reused for a new event, and the stale ID
// simply stops matching. The owner makes an ID meaningless to any kernel
// but the one that issued it.
type EventID struct {
	ev    *event
	owner *Kernel
	gen   uint32
}

// Pending reports whether the event is still scheduled (not yet fired
// and not cancelled).
func (id EventID) Pending() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.index != unqueued
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

// eventQueue is a binary min-heap of same-instant runs, ordered by their
// heads under before, with each head's position kept in its index field so
// Cancel can remove from the middle. A run is a chain (event.next) of
// events that were scheduled back to back for one instant; Kernel.schedule
// grows it and Kernel.unlink drains it, so only heads are ever sifted. The
// heap is typed on *event rather than built on container/heap: the queue
// sits under every scheduled and fired event, and the interface dispatch
// and any-boxing of heap.Interface cost more there than the sifting
// itself. Sifts move a hole instead of swapping.
type eventQueue []*event

// up places ev at hole i or above, shifting later ancestors down.
func (q eventQueue) up(i int, ev *event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
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
		q[i].index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
}

// push adds ev to the queue as the head of a new run.
//
//vcloudlint:hotpath once per scheduled run; growth of the backing array is amortized by the receiver-owned slice
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove closes heap slot i (i == 0 is the earliest), whose run has ended.
//
//vcloudlint:hotpath once per fired or cancelled run
func (q *eventQueue) remove(i int) {
	h := *q
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
}

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop rather than by exhausting events or reaching the horizon.
var ErrStopped = errors.New("sim: stopped")

// Kernel is the discrete-event simulation engine.
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventQueue
	tail    *event   // the most recently scheduled event while it is still queued: the one run that can grow
	pending int      // scheduled events, chained ones included
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
func (k *Kernel) Pending() int { return k.pending }

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

// retire ends ev's incarnation. Bumping gen invalidates every EventID
// issued for it; clearing the callback fields drops references so retired
// events never pin model state for the GC.
func (ev *event) retire() {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
}

// recycle returns a fired or cancelled event to the freelist.
//
//vcloudlint:hotpath runs once per fired event; feeds the freelist that keeps alloc allocation-free
func (k *Kernel) recycle(ev *event) {
	ev.retire()
	k.free = append(k.free, ev)
}

// schedule queues one event. An event for exactly the instant of the most
// recently scheduled, still-queued event (tail) is linked behind it and
// never enters the heap. That keeps pop order exactly (at, seq): a run
// only grows while it is the newest, so its members hold consecutive seq
// and two runs at one instant hold disjoint seq ranges — a head's
// successor therefore precedes every other queued event and can take over
// the head's heap slot as it stands. One remembered event is the whole
// lookup: no per-instant map, no bucket array.
func (k *Kernel) schedule(t Time, fn func(), argFn func(any), arg any) EventID {
	if t < k.now {
		t = k.now
	}
	ev := k.alloc(t, fn, argFn, arg)
	if tl := k.tail; tl != nil && tl.at == t {
		tl.next = ev
		ev.index = chained
	} else {
		k.queue.push(ev)
	}
	k.tail = ev
	k.pending++
	return EventID{ev: ev, owner: k, gen: ev.gen}
}

// unlink takes the run head in heap slot i off the schedule and returns
// it. The next live member of its run inherits the slot with no sift (see
// schedule); tombstones passed on the way are recycled; a run that has
// ended gives the slot back to the heap.
//
//vcloudlint:hotpath once per fired event and per cancelled head; the O(1) path every same-instant run drains through
func (k *Kernel) unlink(i int) *event {
	ev := k.queue[i]
	succ := ev.next
	for succ != nil && succ.index == tombstone {
		dead := succ
		succ = dead.next
		dead.next = nil
		dead.index = unqueued
		k.free = append(k.free, dead)
	}
	if succ != nil {
		k.queue[i] = succ
		succ.index = int32(i)
	} else {
		k.queue.remove(i)
	}
	ev.next = nil
	ev.index = unqueued
	if ev == k.tail {
		k.tail = nil
	}
	k.pending--
	return ev
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
// already-cancelled event, or one another kernel scheduled, is a no-op. It
// reports whether the event was actually removed.
func (k *Kernel) Cancel(id EventID) bool {
	if id.owner != k || !id.Pending() {
		return false
	}
	ev := id.ev
	if ev.index >= 0 {
		k.recycle(k.unlink(int(ev.index)))
		return true
	}
	// Mid-run: the chain is singly linked, so the event stays in place as
	// a tombstone for unlink to skip.
	ev.retire()
	ev.index = tombstone
	if ev == k.tail {
		k.tail = nil
	}
	k.pending--
	return true
}

// Stop makes Run return ErrStopped after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// fire dispatches one popped event. The event is recycled before its
// callback runs — it is already off the queue, the callback is copied out,
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
		k.fire(k.unlink(0))
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
		k.fire(k.unlink(0))
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
	k.fire(k.unlink(0))
	k.runWall += time.Since(start)
	return true
}
