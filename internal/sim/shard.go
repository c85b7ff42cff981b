// Sharded kernel: one scenario spread over every core.
//
// A ShardedKernel runs N child kernels — one per geographic shard — in
// lockstep windows of a fixed conservative lookahead L. Within a window
// [W, W+L) every shard dispatches its own events with no coordination at
// all; the model contract is that any event one shard schedules for
// another carries a delay of at least L, so nothing a neighbor does inside
// the current window can possibly matter before the window ends (classic
// conservative PDES: the lookahead is derived from the model's minimum
// cross-shard latency, e.g. radio range / max vehicle speed phase gaps in
// internal/shardworld).
//
// At the window barrier the coordinator drains every shard's outbox of
// cross-shard events and injects them into the destination kernels in one
// fixed merge order — (time, source shard, per-source sequence) — so the
// destination's (time, seq) dispatch order is a pure function of the model,
// never of goroutine timing. Runs are therefore bit-for-bit reproducible at
// any shard count for models whose semantics are shard-invariant (see
// internal/shardworld for the construction).
//
// The shard workers are the one sanctioned goroutine site inside the
// kernel layer, mirroring experiments.forEachPar one level up: each worker
// owns its shard's kernel exclusively during a window, all shared state is
// touched only by the coordinator between windows, and the start/done
// channels provide the happens-before edges. With one shard no goroutine
// is ever spawned and the coordinator degenerates to a windowed serial run.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Mix64 is the SplitMix64 finalizer: a cheap, high-quality bijective
// mixer. Shard-invariant models draw their "randomness" from counter
// hashes built on it — a draw keyed by (entity, tick) rather than pulled
// from a shared stream is the same no matter which shard, window or
// goroutine evaluates it.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash folds the values into one 64-bit digest of the seeded chain. The
// chain is order-dependent, so Hash(s, a, b) and Hash(s, b, a) are
// decorrelated.
func Hash(seed uint64, vals ...uint64) uint64 {
	h := Mix64(seed ^ 0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = Mix64(h ^ v)
	}
	return h
}

// HashUnit maps the digest of (seed, vals...) onto [0, 1) with 53 bits of
// precision — the counter-based replacement for rand.Float64 in
// shard-invariant model code.
func HashUnit(seed uint64, vals ...uint64) float64 {
	return float64(Hash(seed, vals...)>>11) / (1 << 53)
}

// crossEvent is one cross-shard event parked in its source shard's outbox
// until the next barrier.
type crossEvent struct {
	at  Time
	dst int
	fn  func(any)
	arg any
}

// workerDone reports one shard's window completion to the coordinator.
type workerDone struct {
	idx  int
	busy time.Duration
	err  error
}

// ShardedKernel coordinates N shard kernels under conservative-lookahead
// barrier synchronization. It is not safe for concurrent use by callers;
// like Kernel, all driving happens from one goroutine (the workers it owns
// internally are invisible to model code).
type ShardedKernel struct {
	seed      int64
	lookahead Time
	shards    []*Kernel
	now       Time

	// windowEnd is the exclusive end of the window currently executing;
	// Inject checks cross events against it. It is written only between
	// windows, so worker reads during a window are race-free.
	windowEnd Time

	// outbox[src] collects cross events emitted by shard src during the
	// current window; each worker appends only to its own slot.
	outbox [][]crossEvent
	merged []crossEvent // barrier scratch for the global merge sort

	// Persistent workers, spawned lazily on the first multi-shard window.
	started bool
	closed  bool
	start   []chan Time
	done    chan workerDone

	// Telemetry, accumulated by the coordinator between windows.
	wall       time.Duration // coordinator wall time inside Run
	busyWall   time.Duration // sum of per-shard dispatch time
	critPath   time.Duration // sum over windows of the slowest shard's dispatch time
	windows    uint64
	crossSent  uint64
	windowBusy []time.Duration // per-window scratch, indexed by shard
}

// NewShardedKernel creates a coordinator over n shard kernels. Shard i's
// kernel is seeded with SubSeed(seed, "shard/i"), so per-shard RNG streams
// are decorrelated but stable; shard-invariant models must nevertheless
// draw output-affecting randomness from counter hashes (Hash/HashUnit),
// not from these streams. lookahead is the conservative window length: no
// cross-shard event may be scheduled closer than lookahead in the future.
func NewShardedKernel(seed int64, n int, lookahead Time) (*ShardedKernel, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: shard count must be at least 1, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: lookahead must be positive, got %v", lookahead)
	}
	sk := &ShardedKernel{
		seed:       seed,
		lookahead:  lookahead,
		shards:     make([]*Kernel, n),
		outbox:     make([][]crossEvent, n),
		windowBusy: make([]time.Duration, n),
	}
	for i := range sk.shards {
		sk.shards[i] = NewKernel(SubSeed(seed, fmt.Sprintf("shard/%d", i)))
	}
	return sk, nil
}

// NumShards returns the shard count.
func (sk *ShardedKernel) NumShards() int { return len(sk.shards) }

// Shard returns shard i's kernel. Model code running on shard i schedules
// its local events here; scheduling on another shard's kernel from inside
// a window is a data race — cross-shard work must go through Inject.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Seed returns the coordinator seed.
func (sk *ShardedKernel) Seed() int64 { return sk.seed }

// Lookahead returns the conservative window length.
func (sk *ShardedKernel) Lookahead() Time { return sk.lookahead }

// Now returns the coordinator's virtual time: the start of the next
// unprocessed window (every shard has dispatched all events before it).
func (sk *ShardedKernel) Now() Time { return sk.now }

// Processed returns the total number of events dispatched across shards.
func (sk *ShardedKernel) Processed() uint64 {
	var n uint64
	for _, k := range sk.shards {
		n += k.Processed()
	}
	return n
}

// Pending returns the total number of scheduled events across shards,
// excluding cross events parked in outboxes.
func (sk *ShardedKernel) Pending() int {
	n := 0
	for _, k := range sk.shards {
		n += k.Pending()
	}
	return n
}

// WallTime returns the real time spent inside Run, barriers included.
func (sk *ShardedKernel) WallTime() time.Duration { return sk.wall }

// BusyWall returns the summed per-shard dispatch time — the work a serial
// kernel would have done alone.
func (sk *ShardedKernel) BusyWall() time.Duration { return sk.busyWall }

// CritPathWall returns the parallel critical path: the sum over windows of
// the slowest shard's dispatch time. On a machine with at least NumShards
// free cores, Run's dispatch time converges to this; BusyWall/CritPathWall
// is the speedup the shard decomposition exposes independent of how many
// cores the current host actually has.
func (sk *ShardedKernel) CritPathWall() time.Duration { return sk.critPath }

// Windows returns how many barrier-synchronized windows have executed.
func (sk *ShardedKernel) Windows() uint64 { return sk.windows }

// CrossEvents returns how many cross-shard events have been merged.
func (sk *ShardedKernel) CrossEvents() uint64 { return sk.crossSent }

// Inject schedules a cross-shard event: fn(arg) runs on shard dst at
// virtual time at. The event is parked in shard src's outbox and merged at
// the next barrier in (time, source shard, sequence) order, so injection
// order — and therefore the destination's dispatch order — is independent
// of goroutine timing. Inject panics if the event violates the
// conservative contract by landing before the current window ends: that is
// a model bug (its cross-shard latency is shorter than the lookahead it
// declared), and proceeding would silently break determinism.
func (sk *ShardedKernel) Inject(src, dst int, at Time, fn func(any), arg any) {
	if src < 0 || src >= len(sk.shards) || dst < 0 || dst >= len(sk.shards) {
		panic(fmt.Sprintf("sim: Inject shard out of range: src=%d dst=%d of %d", src, dst, len(sk.shards)))
	}
	if fn == nil {
		panic("sim: Inject with nil fn")
	}
	if at < sk.windowEnd {
		panic(fmt.Sprintf("sim: conservative lookahead violated: cross event at %v lands inside the current window (ends %v); increase the model's cross-shard latency or shrink the lookahead", at, sk.windowEnd))
	}
	sk.outbox[src] = append(sk.outbox[src], crossEvent{at: at, dst: dst, fn: fn, arg: arg})
}

// mergeCross drains every outbox and schedules the events on their
// destination kernels in the fixed (time, source shard, sequence) order.
func (sk *ShardedKernel) mergeCross() {
	sk.merged = sk.merged[:0]
	for src := range sk.outbox {
		sk.merged = append(sk.merged, sk.outbox[src]...)
		// Zero the drained slots so recycled outbox capacity never pins
		// model state for the GC.
		box := sk.outbox[src]
		for i := range box {
			box[i].fn = nil
			box[i].arg = nil
		}
		sk.outbox[src] = box[:0]
	}
	if len(sk.merged) == 0 {
		return
	}
	// merged is concatenated in source-shard order and each outbox is in
	// emission order, so a stable sort on time alone is the (source shard,
	// sequence) tie-break. Equal-time events therefore reach AtArg back to
	// back, which lets a destination queue them as one run (a matter of
	// speed only: its pop order is (at, seq) however they arrive).
	slices.SortStableFunc(sk.merged, func(a, b crossEvent) int { return cmp.Compare(a.at, b.at) })
	for i := range sk.merged {
		ce := &sk.merged[i]
		sk.shards[ce.dst].AtArg(ce.at, ce.fn, ce.arg)
		ce.fn = nil
		ce.arg = nil
	}
	sk.crossSent += uint64(len(sk.merged))
}

// earliest returns the minimum next-event time across shards.
func (sk *ShardedKernel) earliest() (Time, bool) {
	var best Time
	ok := false
	for _, k := range sk.shards {
		if t, has := k.NextEventTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// startWorkers spawns the persistent shard workers. They are the sanctioned
// goroutine site of the kernel layer: each owns one shard's kernel
// exclusively during a window and communicates only over channels.
func (sk *ShardedKernel) startWorkers() {
	sk.start = make([]chan Time, len(sk.shards))
	sk.done = make(chan workerDone, len(sk.shards))
	for i := range sk.shards {
		sk.start[i] = make(chan Time)
		//vcloudlint:allow nogoroutine shard workers are the sanctioned parallel site: one worker owns one shard kernel per window, barriers synchronize via channels
		go sk.worker(i)
	}
	sk.started = true
}

// worker runs one shard's windows as the coordinator releases them. Busy
// time is taken from the kernel's own WallTime accumulator (maintained
// inside RunBefore), so the worker itself never reads the wall clock.
func (sk *ShardedKernel) worker(i int) {
	k := sk.shards[i]
	for we := range sk.start[i] {
		w0 := k.WallTime()
		err := k.RunBefore(we)
		sk.done <- workerDone{idx: i, busy: k.WallTime() - w0, err: err}
	}
}

// runWindow executes one window on every shard and folds the per-shard
// busy times into the telemetry. Errors are selected by lowest shard index
// so the returned error is deterministic.
func (sk *ShardedKernel) runWindow(we Time) error {
	n := len(sk.shards)
	if n == 1 {
		k := sk.shards[0]
		w0 := k.WallTime()
		err := k.RunBefore(we)
		busy := k.WallTime() - w0
		sk.busyWall += busy
		sk.critPath += busy
		sk.windows++
		return err
	}
	if !sk.started {
		sk.startWorkers()
	}
	for i := range sk.start {
		sk.start[i] <- we
	}
	var firstErr error
	firstIdx := n
	var maxBusy time.Duration
	for i := 0; i < n; i++ {
		d := <-sk.done
		sk.windowBusy[d.idx] = d.busy
		sk.busyWall += d.busy
		if d.busy > maxBusy {
			maxBusy = d.busy
		}
		if d.err != nil && d.idx < firstIdx {
			firstErr, firstIdx = d.err, d.idx
		}
	}
	sk.critPath += maxBusy
	sk.windows++
	return firstErr
}

// ErrClosed is returned by Run after Close has torn the workers down.
var ErrClosed = errors.New("sim: sharded kernel closed")

// Run dispatches events window by window until every shard's queue (and
// every outbox) is empty or the horizon is reached. Horizon semantics
// match Kernel.Run: a positive horizon is inclusive, and the clocks are
// left at the horizon when it cuts the run short; zero or negative means
// "run until drained".
func (sk *ShardedKernel) Run(horizon Time) error {
	if sk.closed {
		return ErrClosed
	}
	start := time.Now()
	defer func() { sk.wall += time.Since(start) }()
	// Merge any setup-time injections so they count as pending work.
	sk.mergeCross()
	for {
		next, ok := sk.earliest()
		if !ok || (horizon > 0 && next > horizon) {
			if horizon > 0 {
				sk.advanceTo(horizon)
			}
			return nil
		}
		ws := next
		if ws < sk.now {
			ws = sk.now
		}
		we := ws + sk.lookahead
		if horizon > 0 && we > horizon+1 {
			// Final window: include events at exactly the horizon. Shrinking
			// a window is always conservative-safe.
			we = horizon + 1
		}
		sk.windowEnd = we
		err := sk.runWindow(we)
		sk.mergeCross()
		sk.now = we
		if horizon > 0 && sk.now > horizon {
			sk.advanceTo(horizon)
		}
		if err != nil {
			return err
		}
	}
}

// advanceTo clamps the coordinator and shard clocks onto the horizon after
// the final window (which may have run with an exclusive limit one tick
// past it).
func (sk *ShardedKernel) advanceTo(horizon Time) {
	for _, k := range sk.shards {
		if k.now != horizon {
			k.now = horizon
		}
	}
	sk.now = horizon
}

// Close tears down the persistent workers. The kernel must not be Run
// again afterwards; telemetry accessors remain valid. Close is idempotent.
func (sk *ShardedKernel) Close() {
	if sk.closed {
		return
	}
	sk.closed = true
	if sk.started {
		for i := range sk.start {
			close(sk.start[i])
		}
	}
}
