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
// recycled through a freelist, the AtArg variant lets callers schedule
// pooled callback state without allocating a closure per event,
// and periodic tickers wait in one FIFO per period behind a single heap
// slot rather than as events of their own.
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
	arg   any       // argFn's argument
	lane  *lane     // the lane whose head this slot stands for; nil for a plain event
	index int32     // heap slot, or unqueued
	gen   uint32    // incremented every time the event leaves the schedule
}

// unqueued is event.index for an event that is fired, cancelled or never
// scheduled.
const unqueued int32 = -1

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

// eventQueue is a binary min-heap of events ordered by before, with each
// event's position kept in its index field so Cancel can remove from the
// middle. The heap is typed on *event rather than built on container/heap:
// the queue sits under every scheduled and fired event, and the interface
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

// push adds ev to the queue.
//
//vcloudlint:hotpath once per scheduled event; growth of the backing array is amortized by the receiver-owned slice
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event in heap slot i (i == 0 is the earliest) off the
// queue and returns it.
//
//vcloudlint:hotpath once per fired or cancelled event
func (q *eventQueue) remove(i int) *event {
	h := *q
	ev := h[i]
	ev.index = unqueued
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
	seed    int64
	stopped bool
	// processed counts dispatched events, exposed for tests and reports.
	processed uint64
	// runWall accumulates real time spent inside Run/Step; the sharded
	// kernel reads it per window for its busy and critical-path walls.
	runWall time.Duration
	// scratch holds Scratch's values, made on first use.
	scratch map[any]any
	// lanes holds one lane per ticker period, made by the first Every of
	// that period and kept. tickers counts the live tickers queued in
	// them and laneSlots the heap slots they hold, so Pending can count
	// tickers instead of slots.
	lanes     map[Time]*lane
	tickers   int
	laneSlots int
}

// NewKernel creates a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events dispatched so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently scheduled, each queued
// ticker counted as one.
func (k *Kernel) Pending() int { return len(k.queue) - k.laneSlots + k.tickers }

// WallTime returns the cumulative real time spent dispatching events
// inside Run and Step.
func (k *Kernel) WallTime() time.Duration { return k.runWall }

// Scratch returns the value the kernel keeps under key, calling mk to
// make it the first time key is asked for. It is for data an event fills
// and drains before it returns — a decision's working buffer — which
// every model on the kernel can then share: events fire one at a time on
// one goroutine, so no two of them hold the value at once, and each
// kernel (each shard's included) has its own. Nothing may be kept in it
// across events. Key it like a context value, with a package's own
// unexported type, so packages cannot collide. A hit is one map lookup
// and allocates nothing.
func (k *Kernel) Scratch(key any, mk func() any) any {
	if v, ok := k.scratch[key]; ok {
		return v
	}
	if k.scratch == nil {
		k.scratch = make(map[any]any)
	}
	v := mk()
	k.scratch[key] = v
	return v
}

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
// invalidates every EventID issued for it; clearing the callback fields
// drops references so recycled events never pin model state for the GC.
//
//vcloudlint:hotpath runs once per fired event; feeds the freelist that keeps alloc allocation-free
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	k.free = append(k.free, ev)
}

// schedule queues one event at t, clamped to Now.
func (k *Kernel) schedule(t Time, fn func(), argFn func(any), arg any) EventID {
	if t < k.now {
		t = k.now
	}
	ev := k.alloc(t, fn, argFn, arg)
	k.queue.push(ev)
	return EventID{ev: ev, owner: k, gen: ev.gen}
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

// Every schedules fn to run every period, starting after the first period.
// It returns a Ticker that can be stopped. period must be positive.
func (k *Kernel) Every(period Time, fn func()) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sim: ticker period must be positive, got %v", period)
	}
	if fn == nil {
		return nil, errors.New("sim: ticker callback must not be nil")
	}
	l := k.lanes[period]
	if l == nil {
		if k.lanes == nil {
			k.lanes = make(map[Time]*lane)
		}
		l = &lane{k: k, period: period}
		l.slot.lane = l
		l.slot.index = unqueued
		k.lanes[period] = l
	}
	t := &Ticker{lane: l, fn: fn}
	l.enqueue(t)
	return t, nil
}

// Ticker repeats a callback at a fixed virtual period until stopped.
// queued is false while its callback runs and once it is stopped.
type Ticker struct {
	lane    *lane
	fn      func()
	queued  bool
	stopped bool
}

// Stop halts the ticker. It is safe to call multiple times, from inside
// any callback, its own tick's included.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.queued {
		t.queued = false
		t.lane.drop(t)
	}
}

// laneEntry is one queued tick: when it is due, the seq it took when it
// was queued, and whose it is. An entry whose ticker is stopped is a
// tombstone.
type laneEntry struct {
	at  Time
	seq uint64
	t   *Ticker
}

// lane is the queue of every ticker of one period: a FIFO of entries
// behind a single heap slot keyed by its head, so a tick moves one slot
// on instead of popping and pushing an event.
//
// The FIFO is sorted by (at, seq) by construction. An entry queued at
// Now is (Now+period, a fresh seq); every entry already queued was
// queued at a time no later than Now, so its at is at most Now+period,
// and its seq is smaller. Appending therefore keeps the order, and the
// head is the lane's earliest tick.
//
// Stop leaves a tombstone in place, except at the head: the lane never
// rests on a tombstone, so its slot always carries a live ticker's key
// and the lane holds a slot exactly while it holds a live ticker.
type lane struct {
	k      *Kernel
	period Time
	slot   event // in the heap while live > 0; at and seq are the head's
	buf    []laneEntry
	head   int // buf[head:] is the FIFO
	live   int // entries whose ticker is not stopped
}

// enqueue queues t's next tick one period from Now. It takes its seq
// where scheduling an event would, so ticks interleave with events as
// if each were one.
func (l *lane) enqueue(t *Ticker) {
	k := l.k
	e := laneEntry{at: k.now + l.period, seq: k.seq, t: t}
	k.seq++
	if len(l.buf) == cap(l.buf) && 2*l.head >= len(l.buf) {
		n := copy(l.buf, l.buf[l.head:])
		clear(l.buf[n:])
		l.buf, l.head = l.buf[:n], 0
	}
	l.buf = append(l.buf, e)
	t.queued = true
	l.live++
	k.tickers++
	if l.live == 1 {
		l.slot.at, l.slot.seq = e.at, e.seq
		k.queue.push(&l.slot)
		k.laneSlots++
	}
}

// drop accounts for a queued ticker that was just stopped: its entry
// stays as a tombstone, and if it is the head the slot moves on at once.
func (l *lane) drop(t *Ticker) {
	l.live--
	l.k.tickers--
	if l.buf[l.head].t == t {
		l.rekey()
	}
}

// rekey skips the tombstones at the head and keys the slot by the next
// live entry, or takes the slot off the heap when none is left. Keys only
// grow, so the slot sifts down from where it is.
func (l *lane) rekey() {
	k := l.k
	if l.live == 0 {
		clear(l.buf)
		l.buf, l.head = l.buf[:0], 0
		k.queue.remove(int(l.slot.index))
		k.laneSlots--
		return
	}
	for l.buf[l.head].t.stopped {
		l.buf[l.head] = laneEntry{}
		l.head++
	}
	h := l.buf[l.head]
	l.slot.at, l.slot.seq = h.at, h.seq
	k.queue.down(int(l.slot.index), &l.slot)
}

// fire dispatches the lane's head tick. The slot moves on to the next
// head before the callback runs, so Pending and NextEventTime see the
// queue a popped event would leave; the ticker queues its next tick
// after the callback, as a rescheduling event would.
func (l *lane) fire() {
	k := l.k
	e := l.buf[l.head]
	l.buf[l.head] = laneEntry{}
	l.head++
	k.now = e.at
	k.processed++
	t := e.t
	t.queued = false
	l.live--
	k.tickers--
	l.rekey()
	t.fn()
	if !t.stopped {
		l.enqueue(t)
	}
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event, or one another kernel scheduled, is a no-op. It
// reports whether the event was actually removed.
func (k *Kernel) Cancel(id EventID) bool {
	if id.owner != k || !id.Pending() {
		return false
	}
	k.recycle(k.queue.remove(int(id.ev.index)))
	return true
}

// Stop makes Run return ErrStopped after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// dispatch fires the earliest scheduled event: a lane's head tick, or a
// plain event popped off the queue. A plain event is recycled before its
// callback runs — it is already off the queue, the callback is copied out,
// and recycling first keeps the freelist hot when callbacks schedule
// follow-up events.
func (k *Kernel) dispatch() {
	if l := k.queue[0].lane; l != nil {
		l.fire()
		return
	}
	ev := k.queue.remove(0)
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
		k.dispatch()
	}
	k.now = max(k.now, horizon)
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
		k.dispatch()
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
	k.dispatch()
	k.runWall += time.Since(start)
	return true
}
