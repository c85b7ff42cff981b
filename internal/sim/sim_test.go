package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
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
		var draws []int64
		var step func()
		step = func() {
			draws = append(draws, k.RNG().Int63())
			if len(draws) < 50 {
				k.After(Time(k.RNG().Intn(1000))*time.Millisecond, step)
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

// TestHeapOrderProperty: random batches of events, many sharing a
// timestamp, with random pending events cancelled between schedules, must
// fire exactly the survivors in (time, schedule order) — a stable sort by
// time of the schedule sequence — and every queued event's index must
// name its heap slot after each schedule, cancel and pop.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		k := NewKernel(seed)
		rng := rand.New(rand.NewSource(seed))
		indexed := func() bool {
			for i, ev := range k.queue {
				if ev.index != i {
					return false
				}
			}
			return true
		}
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
		for label, r := range raw {
			at := Time(r%16) * time.Millisecond
			ids = append(ids, k.At(at, func() {
				fired = append(fired, label)
				ok = ok && k.Now() == at && indexed()
			}))
			all = append(all, scheduled{at, label})
			if !indexed() {
				return false
			}
			if r%3 == 0 {
				victim := rng.Intn(len(ids))
				if k.Cancel(ids[victim]) == cancelled[victim] {
					return false // must remove a pending event, and only once
				}
				cancelled[victim] = true
				if ids[victim].Pending() || !indexed() {
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

func TestAtArgDispatchesWithArgument(t *testing.T) {
	k := NewKernel(1)
	var got []int
	record := func(a any) { got = append(got, a.(int)) }
	k.AtArg(2*time.Second, record, 2)
	k.AtArg(1*time.Second, record, 1)
	k.AfterArg(3*time.Second, record, 3)
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
// freelist: once warm, scheduling, firing and cancelling events must not
// allocate at all.
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
		k.AfterArg(time.Millisecond, argFn, nil)
		k.Step()
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule/fire/cancel allocated %.1f times per run, want 0", allocs)
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
		k.AfterArg(Time(1+rng.Intn(1_000_000))*time.Microsecond, hold, nil)
	}
	for i := 0; i < pending; i++ {
		k.AfterArg(Time(1+rng.Intn(1_000_000))*time.Microsecond, hold, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(0); !errors.Is(err, ErrStopped) {
		b.Fatalf("Run = %v, want ErrStopped after b.N fires", err)
	}
}
