package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestRunDispatchesInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(3*time.Second, func() { order = append(order, 3) })
	k.At(1*time.Second, func() { order = append(order, 1) })
	k.At(2*time.Second, func() { order = append(order, 2) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", k.Now())
	}
	if k.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", k.Processed())
	}
}

func TestEqualTimestampsAreFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { order = append(order, i) })
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.After(5*time.Second, func() {
		k.After(2*time.Second, func() { at = k.Now() })
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 7*time.Second {
		t.Errorf("nested After fired at %v, want 7s", at)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var fired Time
	k.At(10*time.Second, func() {
		k.At(1*time.Second, func() { fired = k.Now() }) // in the past
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 10*time.Second {
		t.Errorf("past event fired at %v, want clamp to 10s", fired)
	}
}

func TestHorizonStopsAndAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.At(1*time.Second, func() { ran++ })
	k.At(100*time.Second, func() { ran++ })
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if k.Now() != 10*time.Second {
		t.Errorf("Now = %v, want horizon 10s", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	// Resume past the horizon.
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("after resume ran = %d, want 2", ran)
	}
}

func TestHorizonWithEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	if err := k.Run(42 * time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 42*time.Second {
		t.Errorf("Now = %v, want 42s", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	id := k.At(time.Second, func() { fired = true })
	if !k.Cancel(id) {
		t.Error("Cancel should report true for a pending event")
	}
	if k.Cancel(id) {
		t.Error("double Cancel should report false")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	if k.Cancel(EventID{}) {
		t.Error("Cancel of zero EventID should be a no-op")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	var ids []EventID
	for i := 0; i < 20; i++ {
		i := i
		ids = append(ids, k.At(Time(i)*time.Second, func() { fired = append(fired, i) }))
	}
	for i := 0; i < 20; i += 2 {
		k.Cancel(ids[i])
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(fired), fired)
	}
	if !sort.IntsAreSorted(fired) {
		t.Errorf("fired out of order: %v", fired)
	}
	for _, v := range fired {
		if v%2 == 0 {
			t.Errorf("cancelled event %d fired", v)
		}
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.At(1*time.Second, func() { ran++; k.Stop() })
	k.At(2*time.Second, func() { ran++ })
	err := k.Run(0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
}

func TestStep(t *testing.T) {
	k := NewKernel(1)
	ran := 0
	k.At(time.Second, func() { ran++ })
	if !k.Step() {
		t.Fatal("Step should dispatch")
	}
	if ran != 1 || k.Now() != time.Second {
		t.Fatalf("ran=%d now=%v", ran, k.Now())
	}
	if k.Step() {
		t.Error("Step on empty queue should report false")
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	tk, err := k.Every(time.Second, func() { ticks = append(ticks, k.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	k.At(3500*time.Millisecond, func() { tk.Stop() })
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		if want := Time(i+1) * time.Second; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
	tk.Stop() // double stop is safe
}

func TestTickerValidation(t *testing.T) {
	k := NewKernel(1)
	if _, err := k.Every(0, func() {}); err == nil {
		t.Error("want error for zero period")
	}
	if _, err := k.Every(time.Second, nil); err == nil {
		t.Error("want error for nil callback")
	}
}

func TestNilCallbackIgnored(t *testing.T) {
	k := NewKernel(1)
	id := k.At(time.Second, nil)
	if id.ev != nil {
		t.Error("nil callback should not schedule")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		k := NewKernel(seed)
		rng := k.NewStream("draws")
		var draws []int64
		var step func()
		step = func() {
			draws = append(draws, rng.Int63())
			if len(draws) < 50 {
				k.After(Time(rng.Intn(1000))*time.Millisecond, step)
			}
		}
		k.After(time.Millisecond, step)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(100)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical runs")
	}
}

func TestNewStreamStableAndDecorrelated(t *testing.T) {
	k1 := NewKernel(7)
	k2 := NewKernel(7)
	s1 := k1.NewStream("radio")
	s2 := k2.NewStream("radio")
	for i := 0; i < 10; i++ {
		if s1.Int63() != s2.Int63() {
			t.Fatal("same-name streams differ across kernels with same seed")
		}
	}
	a := NewKernel(7).NewStream("radio")
	b := NewKernel(7).NewStream("mobility")
	diff := false
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different-name streams are identical")
	}
}

// liveEvents walks k's heap and returns every plain event in it, or an
// error if the queue breaks an invariant: each event holds its heap slot
// and obeys heap order, no event sits in two slots, each lane is sorted,
// rests on a live head that keys its slot and holds a slot exactly while
// it counts a live ticker, and Pending() counts the plain events plus
// the live queued tickers.
func liveEvents(k *Kernel) (map[*event]bool, error) {
	live := make(map[*event]bool)
	tickers := 0
	for i, ev := range k.queue {
		if ev.index != int32(i) {
			return nil, fmt.Errorf("event in slot %d has index %d", i, ev.index)
		}
		if i > 0 && ev.before(k.queue[(i-1)/2]) {
			return nil, fmt.Errorf("slot %d precedes its parent", i)
		}
		if live[ev] {
			return nil, fmt.Errorf("event seq %d in two slots", ev.seq)
		}
		live[ev] = true
	}
	for period, l := range k.lanes {
		n, fifo := 0, l.buf[l.head:]
		for j, e := range fifo {
			if !e.t.stopped {
				n++
				if !e.t.queued || e.t.lane != l {
					return nil, fmt.Errorf("lane %v: live entry %d not marked queued in it", period, j)
				}
			}
			if j > 0 && !(&event{at: fifo[j-1].at, seq: fifo[j-1].seq}).before(&event{at: e.at, seq: e.seq}) {
				return nil, fmt.Errorf("lane %v: entry %d out of order", period, j)
			}
		}
		if n != l.live {
			return nil, fmt.Errorf("lane %v counts %d live tickers, holds %d", period, l.live, n)
		}
		if inHeap := live[&l.slot]; inHeap != (n > 0) || len(fifo) > 0 != (n > 0) {
			return nil, fmt.Errorf("lane %v: slot queued %v with %d entries, %d live", period, inHeap, len(fifo), n)
		}
		if n > 0 {
			if h := fifo[0]; h.t.stopped || l.slot.at != h.at || l.slot.seq != h.seq {
				return nil, fmt.Errorf("lane %v: slot keyed (%v, %d), head (%v, %d) stopped %v", period, l.slot.at, l.slot.seq, h.at, h.seq, h.t.stopped)
			}
			delete(live, &l.slot)
			tickers += n
		}
	}
	if len(live)+tickers != k.Pending() {
		return nil, fmt.Errorf("Pending() = %d, %d events and %d tickers queued", k.Pending(), len(live), tickers)
	}
	return live, nil
}

// checkQueue asserts liveEvents' invariants plus: an EventID reports
// Pending exactly when its event is reachable in its current incarnation.
func checkQueue(k *Kernel, ids []EventID) error {
	live, err := liveEvents(k)
	if err != nil {
		return err
	}
	for i, id := range ids {
		if reachable := live[id.ev] && id.ev.gen == id.gen; id.Pending() != reachable {
			return fmt.Errorf("id %d: Pending() = %v, reachable = %v", i, id.Pending(), reachable)
		}
	}
	return nil
}

// TestHeapOrderProperty: random batches of events, many sharing a
// timestamp, with random pending events cancelled between schedules, must
// fire exactly the survivors in (time, schedule order) — a stable sort by
// time of the schedule sequence — and the queue must satisfy checkQueue
// after each schedule, cancel and pop.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		k := NewKernel(seed)
		rng := rand.New(rand.NewSource(seed))
		type scheduled struct {
			at    Time
			label int
		}
		var (
			ids       []EventID
			all       []scheduled
			fired     []int
			cancelled = make(map[int]bool)
			ok        = true
		)
		sound := func() bool {
			if err := checkQueue(k, ids); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		for label, r := range raw {
			at := Time(r%16) * time.Millisecond
			ids = append(ids, k.At(at, func() {
				fired = append(fired, label)
				ok = ok && k.Now() == at && sound()
			}))
			all = append(all, scheduled{at, label})
			if !sound() {
				return false
			}
			if r%3 == 0 {
				victim := rng.Intn(len(ids))
				if k.Cancel(ids[victim]) == cancelled[victim] {
					return false // must remove a pending event, and only once
				}
				cancelled[victim] = true
				if ids[victim].Pending() || !sound() {
					return false
				}
			}
		}
		var want []scheduled
		for _, s := range all {
			if !cancelled[s.label] {
				want = append(want, s)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if err := k.Run(0); err != nil || !ok || k.Pending() != 0 || len(fired) != len(want) {
			return false
		}
		for i, s := range want {
			if fired[i] != s.label {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestStaleEventIDAfterRecycle: once an event fires, its slot may be
// recycled for a brand-new event. The stale EventID must neither report
// Pending nor cancel the new incarnation.
func TestStaleEventIDAfterRecycle(t *testing.T) {
	k := NewKernel(1)
	firstFired := false
	stale := k.At(time.Second, func() { firstFired = true })
	if !k.Step() {
		t.Fatal("Step should dispatch")
	}
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	if stale.Pending() {
		t.Error("fired event still reports Pending")
	}
	// The freelist hands the same slot to the next event.
	secondFired := false
	fresh := k.At(2*time.Second, func() { secondFired = true })
	if stale.ev != fresh.ev {
		t.Fatalf("freelist did not recycle the event slot")
	}
	if stale.Pending() {
		t.Error("stale EventID reports Pending for the recycled slot")
	}
	if k.Cancel(stale) {
		t.Error("stale EventID cancelled the recycled event")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !secondFired {
		t.Error("recycled event lost its callback: second event never fired")
	}
}

// TestCancelledEventIsRecycled: Cancel must return events to the freelist
// too, so cancelled timers (the common vnet/vcloud timeout pattern) do not
// leak allocations.
func TestCancelledEventIsRecycled(t *testing.T) {
	k := NewKernel(1)
	id := k.At(time.Second, func() {})
	if !k.Cancel(id) {
		t.Fatal("Cancel failed")
	}
	fresh := k.At(time.Second, func() {})
	if id.ev != fresh.ev {
		t.Error("cancelled event was not recycled")
	}
	if id.Pending() {
		t.Error("stale EventID for cancelled event reports Pending")
	}
}

// TestCancelForeignID: an EventID means nothing to a kernel that did not
// issue it. Cancelling one there must report false, leave that kernel's
// own events — including whatever sits in the same heap slot — to fire,
// and leave the issuer's event as it was.
func TestCancelForeignID(t *testing.T) {
	twoKernels := func(*testing.T) (a, b *Kernel) { return NewKernel(1), NewKernel(2) }
	cases := []struct {
		name    string
		kernels func(*testing.T) (a, b *Kernel)
		issue   func(b *Kernel, fired *int) EventID // b schedules events counting into fired, returns one id
		pending bool                                // whether that id is live on b
		bFires  int                                 // events b dispatches when drained afterwards
	}{
		{"foreign head", twoKernels, func(b *Kernel, fired *int) EventID {
			return b.At(time.Second, func() { *fired++ })
		}, true, 1},
		{"foreign mid-heap event", twoKernels, func(b *Kernel, fired *int) EventID {
			b.At(time.Second, func() { *fired++ })
			mid := b.At(time.Second, func() { *fired++ })
			b.At(time.Second, func() { *fired++ })
			return mid
		}, true, 3},
		{"foreign stale id", twoKernels, func(b *Kernel, fired *int) EventID {
			stale := b.At(time.Second, func() { *fired++ })
			b.Step()
			b.At(2*time.Second, func() { *fired++ }) // reuses the slot
			return stale
		}, false, 2},
		{"another shard's id", func(t *testing.T) (a, b *Kernel) {
			sk, err := NewShardedKernel(1, 2, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sk.Close)
			return sk.Shard(0), sk.Shard(1)
		}, func(b *Kernel, fired *int) EventID {
			return b.At(time.Second, func() { *fired++ })
		}, true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.kernels(t)
			aFired, bFired := 0, 0
			own := a.At(time.Second, func() { aFired++ })
			id := tc.issue(b, &bFired)
			if id.Pending() != tc.pending {
				t.Fatalf("id.Pending() = %v before the foreign Cancel, want %v", id.Pending(), tc.pending)
			}
			if a.Cancel(id) {
				t.Error("Cancel of another kernel's id reported true")
			}
			if !own.Pending() || a.Pending() != 1 {
				t.Errorf("foreign Cancel disturbed the kernel's own event: id pending %v, Pending() = %d", own.Pending(), a.Pending())
			}
			if id.Pending() != tc.pending {
				t.Errorf("foreign Cancel changed the issuer's event: Pending() = %v, want %v", id.Pending(), tc.pending)
			}
			if err := a.Run(0); err != nil {
				t.Fatal(err)
			}
			if err := b.Run(0); err != nil {
				t.Fatal(err)
			}
			if aFired != 1 || bFired != tc.bFires {
				t.Errorf("fired %d and %d events, want 1 and %d", aFired, bFired, tc.bFires)
			}
		})
	}
}

func TestAtArgDispatchesWithArgument(t *testing.T) {
	k := NewKernel(1)
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	k.AtArg(2*time.Second, record, 2)
	k.AtArg(1*time.Second, record, 1)
	k.AtArg(3*time.Second, record, 3)
	if k.AtArg(time.Second, nil, 9).Pending() {
		t.Error("nil argFn should not schedule")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AtArg order = %v, want [1 2 3]", got)
	}
}

// TestAtArgOrderingSharedWithAt: At and AtArg events interleave in one
// (time, seq) order — the freelist refactor must not fork the contract.
func TestAtArgOrderingSharedWithAt(t *testing.T) {
	k := NewKernel(1)
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	k.At(time.Second, func() { got = append(got, 0) })
	k.AtArg(time.Second, record, 1)
	k.At(time.Second, func() { got = append(got, 2) })
	k.AtArg(time.Second, record, 3)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed At/AtArg FIFO violated: %v", got)
		}
	}
}

// TestScheduleFireCancelAllocFree is the perf regression guard for the
// freelist and the ticker lanes: once warm, scheduling, firing and
// cancelling events and firing ticks must not allocate at all.
func TestScheduleFireCancelAllocFree(t *testing.T) {
	k := NewKernel(1)
	fn := func() {}
	argFn := func(any) {}
	// Warm the freelist and the heap's backing array.
	for i := 0; i < 64; i++ {
		k.After(time.Millisecond, fn)
	}
	for k.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Cancel(k.After(time.Millisecond, fn))
		k.After(time.Millisecond, fn)
		k.AtArg(k.Now()+time.Millisecond, argFn, nil)
		k.Step()
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule/fire/cancel allocated %.1f times per run, want 0", allocs)
	}
	// The same for three events at one instant: cancel the middle one
	// out of the heap, fire the rest.
	allocs = testing.AllocsPerRun(1000, func() {
		k.After(time.Millisecond, fn)
		mid := k.AtArg(k.Now()+time.Millisecond, argFn, nil)
		k.After(time.Millisecond, fn)
		k.Cancel(mid)
		k.Step()
		k.Step()
	})
	if allocs != 0 || k.Pending() != 0 {
		t.Errorf("same-instant schedule/cancel/fire allocated %.1f times per run with %d left pending, want 0 and 0", allocs, k.Pending())
	}
	// A steady lane: each Step fires one tick and queues the next, once
	// the lane's FIFO has grown to its working size.
	for i := 0; i < 3; i++ {
		if _, err := k.Every(time.Millisecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		k.Step()
	}
	if allocs = testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
		t.Errorf("a tick allocated %.1f times, want 0", allocs)
	}
}

// TestEventStaysOneCacheLine: the queue dereferences every event it orders,
// and 64 bytes is also an allocator size class — a 65th byte costs 80.
func TestEventStaysOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 64 {
		t.Errorf("event is %d bytes, want at most 64", size)
	}
}

func TestWallTimeAccumulates(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 1000; i++ {
		k.At(Time(i)*time.Millisecond, func() {})
	}
	if k.WallTime() != 0 {
		t.Errorf("WallTime before Run = %v, want 0", k.WallTime())
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.WallTime() <= 0 {
		t.Error("WallTime not accumulated by Run")
	}
}

func BenchmarkKernelScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		rng := k.NewStream("bench")
		for j := 0; j < 1000; j++ {
			k.At(Time(rng.Intn(1_000_000))*time.Microsecond, func() {})
		}
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelHotLoop measures the steady-state schedule+fire cycle on
// a warm kernel — the path the freelist optimizes.
func BenchmarkKernelHotLoop(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(time.Millisecond, fn)
	}
	for k.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Millisecond, fn)
		k.Step()
	}
}

// BenchmarkKernelSameInstant is the other extreme from the hold model: N
// events scheduled back to back for one instant and then drained, the
// shape of a sharded tick's deliveries — one op is one whole batch.
func BenchmarkKernelSameInstant(b *testing.B) {
	const n = 10_000
	k := NewKernel(1)
	fn := func(any) {}
	cycle := func() {
		at := k.Now() + time.Millisecond
		for j := 0; j < n; j++ {
			k.AtArg(at, fn, nil)
		}
		if err := k.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	cycle() // fill the freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkKernelHold is the hold model: a standing population of pending
// events, each of which reschedules itself at a random later time when it
// fires, so one op is one pop and one push at depth — the event queue's
// cost with the freelist and the callback factored out.
func BenchmarkKernelHold(b *testing.B) {
	const pending = 2000
	k := NewKernel(1)
	rng := k.NewStream("hold")
	fired := 0
	var hold func(any)
	hold = func(any) {
		if fired++; fired == b.N {
			k.Stop()
			return
		}
		k.AtArg(k.Now()+Time(1+rng.Intn(1_000_000))*time.Microsecond, hold, nil)
	}
	for i := 0; i < pending; i++ {
		k.AtArg(k.Now()+Time(1+rng.Intn(1_000_000))*time.Microsecond, hold, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); !errors.Is(err, ErrStopped) {
		b.Fatalf("Run = %v, want ErrStopped after b.N fires", err)
	}
}

// BenchmarkKernelTickers is a beaconing fleet's shape: n tickers spread
// over three periods, each started at a random phase within its period,
// ticking an empty callback. One op is one tick.
func BenchmarkKernelTickers(b *testing.B) {
	periods := [3]Time{100 * time.Millisecond, 500 * time.Millisecond, time.Second}
	for _, n := range []int{2_000, 20_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			k := NewKernel(1)
			rng := k.NewStream("tickers")
			ticks, limit := 0, -1 // no limit while the tickers start
			tick := func() {
				if ticks++; ticks == limit {
					k.Stop()
				}
			}
			for i := 0; i < n; i++ {
				p := periods[i%len(periods)]
				k.At(Time(rng.Int63n(int64(p))), func() {
					if _, err := k.Every(p, tick); err != nil {
						b.Fatal(err)
					}
				})
			}
			if err := k.Run(periods[len(periods)-1]); err != nil {
				b.Fatal(err)
			}
			ticks, limit = 0, b.N
			b.ReportAllocs()
			b.ResetTimer()
			if err := k.Run(0); !errors.Is(err, ErrStopped) {
				b.Fatalf("Run = %v, want ErrStopped after b.N ticks", err)
			}
		})
	}
}

// BenchmarkKernelFrameBursts is cloud_storm's shape: ~3 600 far-future
// events held (the workload's pre-scheduled ops and timers) while radio
// frames arrive, each a burst of 37 receptions at distinct instants inside
// a 500 µs jitter window, each scheduled as its own event and fired to
// drain. One op is one frame.
func BenchmarkKernelFrameBursts(b *testing.B) {
	const (
		held   = 3600
		burst  = 37
		window = 500 * time.Microsecond
	)
	k := NewKernel(1)
	rng := k.NewStream("bursts")
	fn := func(any) {}
	for i := 0; i < held; i++ {
		k.AtArg(100*time.Hour+Time(rng.Int63n(int64(time.Hour))), fn, nil)
	}
	var offsets [64][burst]Time
	for i := range offsets {
		for j := range offsets[i] {
			offsets[i][j] = 1 + Time(rng.Int63n(int64(window)))
		}
		slices.Sort(offsets[i][:])
	}
	frame := func(i int) {
		now := k.Now()
		for _, d := range offsets[i%len(offsets)] {
			k.AtArg(now+d, fn, nil)
		}
		if err := k.Run(now + window); err != nil {
			b.Fatal(err)
		}
	}
	frame(0) // fill the freelist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame(i)
	}
	if k.Pending() != held {
		b.Fatalf("Pending() = %d after the bursts drained, want the %d held events", k.Pending(), held)
	}
}

// ---------------------------------------------------------------------
// Oracle: a plain (at, seq) heap kernel kept as the reference model.
// Every event enters the heap; schedule, Cancel, Stop and the run loops
// are Kernel's, minus wall-clock telemetry and the RNG.
// TestRunQueueMatchesHeapModel and FuzzKernelOrder drive it and Kernel
// with one program and require the same observable history.

type heapEvent struct {
	at    Time
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	index int
	gen   uint32
}

type heapEventID struct {
	ev  *heapEvent
	gen uint32
}

func (id heapEventID) Pending() bool {
	return id.ev != nil && id.ev.gen == id.gen && id.ev.index >= 0
}

func (ev *heapEvent) before(o *heapEvent) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

type heapQueue []*heapEvent

func (q heapQueue) up(i int, ev *heapEvent) {
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

func (q heapQueue) down(i int, ev *heapEvent) {
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

func (q *heapQueue) push(ev *heapEvent) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

func (q *heapQueue) remove(i int) *heapEvent {
	h := *q
	ev := h[i]
	ev.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i < n {
		if i > 0 && last.before(h[(i-1)/2]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	return ev
}

type heapKernel struct {
	now       Time
	seq       uint64
	queue     heapQueue
	free      []*heapEvent
	processed uint64
	stopped   bool
}

func (k *heapKernel) Stop() { k.stopped = true }

func (k *heapKernel) Now() Time         { return k.now }
func (k *heapKernel) Processed() uint64 { return k.processed }
func (k *heapKernel) Pending() int      { return len(k.queue) }

func (k *heapKernel) alloc(t Time, fn func(), argFn func(any), arg any) *heapEvent {
	var ev *heapEvent
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = new(heapEvent)
	}
	ev.at = t
	ev.seq = k.seq
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	k.seq++
	return ev
}

func (k *heapKernel) recycle(ev *heapEvent) {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	k.free = append(k.free, ev)
}

func (k *heapKernel) schedule(t Time, fn func(), argFn func(any), arg any) heapEventID {
	if t < k.now {
		t = k.now
	}
	ev := k.alloc(t, fn, argFn, arg)
	k.queue.push(ev)
	return heapEventID{ev: ev, gen: ev.gen}
}

func (k *heapKernel) At(t Time, fn func()) heapEventID {
	if fn == nil {
		return heapEventID{}
	}
	return k.schedule(t, fn, nil, nil)
}

func (k *heapKernel) AtArg(t Time, fn func(any), arg any) heapEventID {
	if fn == nil {
		return heapEventID{}
	}
	return k.schedule(t, nil, fn, arg)
}

func (k *heapKernel) After(d Time, fn func()) heapEventID { return k.At(k.now+d, fn) }

func (k *heapKernel) AfterArg(d Time, fn func(any), arg any) heapEventID {
	return k.AtArg(k.now+d, fn, arg)
}

func (k *heapKernel) Every(period Time, fn func()) *heapTicker {
	t := &heapTicker{k: k, period: period, fn: fn}
	t.schedule()
	return t
}

type heapTicker struct {
	k       *heapKernel
	period  Time
	fn      func()
	pending heapEventID
	stopped bool
}

func heapTickerFire(a any) {
	t := a.(*heapTicker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

func (t *heapTicker) schedule() {
	t.pending = t.k.AfterArg(t.period, heapTickerFire, t)
}

func (t *heapTicker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.k.Cancel(t.pending)
}

func (k *heapKernel) Cancel(id heapEventID) bool {
	if !id.Pending() {
		return false
	}
	k.recycle(k.queue.remove(id.ev.index))
	return true
}

func (k *heapKernel) fire(ev *heapEvent) {
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

func (k *heapKernel) Run(horizon Time) error {
	k.stopped = false
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

func (k *heapKernel) RunBefore(limit Time) error {
	k.stopped = false
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

func (k *heapKernel) NextEventTime() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

func (k *heapKernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	k.fire(k.queue.remove(0))
	return true
}

// orderedKernel is the surface the differential harness drives; *Kernel
// satisfies it with EventID, *heapKernel with heapEventID.
type orderedKernel[ID any] interface {
	At(Time, func()) ID
	AtArg(Time, func(any), any) ID
	After(Time, func()) ID
	Cancel(ID) bool
	Stop()
	Step() bool
	Run(Time) error
	RunBefore(Time) error
	Now() Time
	Pending() int
	NextEventTime() (Time, bool)
	Processed() uint64
}

// side runs one program against one kernel and logs what can be observed.
// Both sides decode the same bytes, so their logs agree as long as the two
// kernels fire events in the same order: labels are handed out in
// scheduling order, and a handler's follow-up is fixed by the byte it was
// scheduled with.
type side[ID interface{ Pending() bool }] struct {
	k      orderedKernel[ID]
	every  func(period Time, fn func()) (stop func())
	ids    []ID     // every id issued, fired and stale ones included
	stops  []func() // one per ticker
	log    []int    // labels in firing order; Cancel and Step results as negatives
	labels int
	// inside is what each callback saw of the queue as it ran: Pending,
	// then NextEventTime's instant, or -1 for none.
	inside []Time
}

// history is what one side has let an observer see so far.
type history struct {
	Log        []int
	Inside     []Time
	Now, Next  Time
	HasNext    bool
	Pending    int
	Processed  uint64
	IDsPending []bool
}

func (s *side[ID]) history() history {
	h := history{Log: s.log, Inside: s.inside, Now: s.k.Now(), Pending: s.k.Pending(), Processed: s.k.Processed()}
	h.Next, h.HasNext = s.k.NextEventTime()
	for _, id := range s.ids {
		h.IDsPending = append(h.IDsPending, id.Pending())
	}
	return h
}

// nearInstants keeps most of a program on a few instants, so many events
// share an instant, get cancelled among and are added to while it drains.
var nearInstants = [3]Time{0, time.Millisecond, 3 * time.Millisecond}

const maxOracleTickers = 10

func callArg(a any) { a.(func())() }

// enter logs a callback's label and what it sees of the queue.
func (s *side[ID]) enter(label int) {
	s.log = append(s.log, label)
	next, ok := s.k.NextEventTime()
	if !ok {
		next = -1
	}
	s.inside = append(s.inside, Time(s.k.Pending()), next)
}

// ticker starts a labelled ticker of period p whose tick, after enter,
// runs tick (if not nil) with the ticker's index into stops and its count
// of ticks so far. It starts nothing once maxOracleTickers are started.
func (s *side[ID]) ticker(p Time, tick func(i, n int)) {
	if len(s.stops) == maxOracleTickers {
		return
	}
	label, ticks, i := s.labels, 0, len(s.stops)
	s.labels++
	s.stops = append(s.stops, nil)
	s.stops[i] = s.every(p, func() {
		s.enter(label)
		if ticks++; tick != nil {
			tick(i, ticks)
		}
	})
}

// stop stops ticker i if it was started.
func (s *side[ID]) stop(i int) {
	if i < len(s.stops) {
		s.stops[i]()
	}
}

// at, atArg and after schedule an event and keep its id.
func (s *side[ID]) at(t Time, fn func()) {
	s.ids = append(s.ids, s.k.At(t, fn))
}

func (s *side[ID]) atArg(t Time, fn func(any), arg any) {
	s.ids = append(s.ids, s.k.AtArg(t, fn, arg))
}

func (s *side[ID]) after(d Time, fn func()) {
	s.ids = append(s.ids, s.k.After(d, fn))
}

func (s *side[ID]) logBool(code int, ok bool) {
	if ok {
		code--
	}
	s.log = append(s.log, code)
}

// cancel cancels the back-th most recently issued id: small values of
// back find recent and mid-heap events, large ones fired, cancelled and
// recycled events.
func (s *side[ID]) cancel(back int) {
	if n := len(s.ids); n > 0 {
		s.logBool(-1, s.k.Cancel(s.ids[n-1-back%n]))
	}
}

// handler returns a labelled callback whose follow-up is chosen by b;
// follow-ups of follow-ups stop at depth 2 so every program drains.
func (s *side[ID]) handler(b byte, depth int) func() {
	label := s.labels
	s.labels++
	return func() {
		s.enter(label)
		if depth == 2 {
			return
		}
		now, arg := s.k.Now(), int(b>>3)
		switch b % 8 {
		case 0: // at now: joins the draining instant, behind everything queued for it
			s.at(now, s.handler(b>>3, depth+1))
		case 1:
			s.after(nearInstants[arg%3], s.handler(b>>3, depth+1))
		case 2: // in the past: clamps to now
			s.at(now-time.Millisecond, s.handler(b>>3, depth+1))
		case 3: // two back to back, the arg form
			s.atArg(now, callArg, s.handler(b>>3, depth+1))
			s.atArg(now, callArg, s.handler(b>>4, depth+1))
		case 4:
			s.cancel(arg % 8)
		case 5:
			s.cancel(arg * 11)
		case 6: // one ticker period on: the instant a ticker started now would tick
			s.after(nearInstants[arg%3]+time.Millisecond, s.handler(b>>3, depth+1))
		case 7: // cut the Run or RunBefore dispatching this event short
			s.k.Stop()
		}
	}
}

// burst schedules k events in ascending time, j·step after start, through
// both callback forms: the shape of a frame's receptions.
func (s *side[ID]) burst(start, step Time, k int, b byte) {
	for j := 0; j < k; j++ {
		at := start + Time(j)*step
		if j%2 == 0 {
			s.at(at, s.handler(b>>j, 0))
		} else {
			s.atArg(at, callArg, s.handler(b>>j, 0))
		}
	}
}

// apply executes one three-byte instruction.
func (s *side[ID]) apply(op, a, b byte) {
	now := s.k.Now()
	near := nearInstants[a%3]
	wide := Time(int(a)<<8|int(b)) * time.Microsecond
	switch op % 15 {
	case 0, 1:
		s.at(now+near, s.handler(b, 0))
	case 2:
		s.at(now+wide, s.handler(b, 0))
	case 3:
		s.atArg(now+near, callArg, s.handler(b, 0))
	case 4:
		s.after(near, s.handler(b, 0))
	case 5: // a ticker that stops itself from inside its own tick after 1-4 ticks, or (b%5 == 4) never
		s.ticker(near+time.Millisecond, func(i, n int) {
			if n == int(b%5)+1 && b%5 != 4 {
				s.stop(i)
			}
		})
	case 6:
		s.cancel(int(a) % 16)
	case 7:
		s.cancel(int(a)<<8 | int(b))
	case 8:
		s.logBool(-3, s.k.Step())
	case 9: // a positive horizon: Run(0) would never return while a ticker lives
		if b%2 == 1 {
			near = wide
		}
		_ = s.k.Run(now + near + time.Millisecond)
	case 10:
		_ = s.k.RunBefore(now + near)
	case 11:
		if n := len(s.stops); n > 0 {
			s.stop(int(a) % n)
		}
	case 12: // an ascending burst at distinct instants 100-400 µs apart
		s.burst(now+near, Time(1+b%4)*100*time.Microsecond, 2+int(a)%7, b)
	case 13: // the same, then cancel into its middle and, for odd b, its head
		k := 2 + int(a)%7
		s.burst(now+near, Time(1+b%4)*100*time.Microsecond, k, b)
		s.cancel(k / 2)
		if b%2 == 1 {
			s.cancel(k - 1)
		}
	case 14: // three tickers of one period and phase, queued back to back in one lane; the first acts on its (b>>2%3+1)-th tick
		if len(s.stops)+3 > maxOracleTickers {
			return
		}
		p := near + time.Millisecond
		s.ticker(p, func(i, n int) {
			if n != int(b>>2%3)+1 {
				return
			}
			switch b % 4 {
			case 0: // stop the second, the lane's head while the first ticks
				s.stop(i + 1)
			case 1: // stop the third, mid-lane behind the second
				s.stop(i + 2)
			case 2: // start another of the period, queued ahead of this one's next tick
				s.ticker(p, nil)
			case 3: // stop both others, emptying a lane of only these, then start another
				s.stop(i + 1)
				s.stop(i + 2)
				s.ticker(p, nil)
			}
		})
		s.ticker(p, nil)
		s.ticker(p, nil)
	}
}

// drain stops every ticker and runs the queue dry, through any Stop.
func (s *side[ID]) drain() {
	for _, stop := range s.stops {
		stop()
	}
	for s.k.Run(0) == ErrStopped {
	}
}

// checkProgram runs prog on a Kernel and on the heap model and fails on
// the first instruction after which their histories differ or the Kernel's
// queue breaks a structural invariant.
func checkProgram(t testing.TB, prog []byte) {
	k, hk := NewKernel(1), &heapKernel{}
	got := &side[EventID]{k: k, every: func(p Time, fn func()) func() {
		tk, err := k.Every(p, fn)
		if err != nil {
			t.Fatal(err)
		}
		return tk.Stop
	}}
	want := &side[heapEventID]{k: hk, every: func(p Time, fn func()) func() { return hk.Every(p, fn).Stop }}
	check := func(step string) {
		t.Helper()
		if g, w := got.history(), want.history(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: kernel and heap model diverge\n got %+v\nwant %+v", step, g, w)
		}
		if err := checkQueue(k, got.ids); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	for i := 0; i+2 < len(prog); i += 3 {
		got.apply(prog[i], prog[i+1], prog[i+2])
		want.apply(prog[i], prog[i+1], prog[i+2])
		check(fmt.Sprintf("instruction %d (%d %d %d)", i/3, prog[i]%15, prog[i+1], prog[i+2]))
	}
	got.drain()
	want.drain()
	check("drain")
	if k.Pending() != 0 {
		t.Fatalf("drained kernel has %d events pending", k.Pending())
	}
}

// TestRunQueueMatchesHeapModel: the kernel must be indistinguishable from
// the heap model — same firing order, clock, counts, next-event time and
// id liveness after every operation of seeded random programs that
// schedule through every entry point, mostly onto three near instants or
// in ascending bursts across distinct ones, cancel the earliest, mid-heap,
// newest, fired and recycled ids, start tickers of equal period and phase,
// stop tickers from inside their own tick and from a tick of their lane
// (its head and mid-lane), start tickers from inside a tick of their
// period, Stop the run from inside an event, and interleave Step, Run and
// RunBefore. Every callback logs Pending and NextEventTime as it runs.
func TestRunQueueMatchesHeapModel(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 3*(40+rng.Intn(160)))
		rng.Read(prog)
		checkProgram(t, prog)
	}
}

// FuzzKernelOrder feeds checkProgram arbitrary programs.
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 3, 0, 1, 4, 6, 1, 0, 9, 1, 0})
	f.Add([]byte{5, 0, 1, 3, 0, 24, 3, 0, 2, 8, 0, 0, 10, 2, 0, 7, 0, 3})
	f.Add([]byte{12, 4, 9, 13, 6, 3, 13, 1, 6, 8, 0, 0, 6, 2, 0, 10, 1, 0, 12, 5, 2, 9, 0, 0})
	f.Add([]byte{12, 3, 1, 13, 5, 3, 2, 0, 2, 3, 1, 3, 13, 4, 8, 8, 0, 0, 9, 1, 0, 6, 7, 6, 10, 2, 0})
	f.Add([]byte{14, 0, 0, 14, 0, 1, 9, 1, 1, 14, 1, 2, 14, 0, 3, 9, 2, 1, 11, 4, 0, 9, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*400 {
			prog = prog[:3*400]
		}
		checkProgram(t, prog)
	})
}

// TestScratchPerKernel: one key on one kernel is one value, made once;
// another kernel makes its own; a hit allocates nothing.
func TestScratchPerKernel(t *testing.T) {
	type key struct{}
	made := 0
	mk := func() any { made++; return new([]int) }
	k1, k2 := NewKernel(1), NewKernel(1)
	a := k1.Scratch(key{}, mk).(*[]int)
	if b := k1.Scratch(key{}, mk).(*[]int); b != a || made != 1 {
		t.Fatalf("same key, same kernel: got %p then %p, made %d times, want one value made once", a, b, made)
	}
	if c := k2.Scratch(key{}, mk).(*[]int); c == a || made != 2 {
		t.Fatalf("second kernel shares %p (made %d times), want its own value", c, made)
	}
	type other struct{}
	if d := k1.Scratch(other{}, mk).(*[]int); d == a {
		t.Fatal("distinct keys share one value")
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = k1.Scratch(key{}, mk) }); allocs != 0 {
		t.Errorf("Scratch hit: %v allocs/op, want 0", allocs)
	}
}
