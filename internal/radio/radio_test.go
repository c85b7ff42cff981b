package radio

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
)

func testBounds() geo.Rect { return geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 5000, Y: 5000}) }

func newTestMedium(t testing.TB, k *sim.Kernel) *Medium {
	t.Helper()
	m, err := NewMedium(k, testBounds(), DefaultParams())
	if err != nil {
		t.Fatalf("NewMedium: %v", err)
	}
	return m
}

func TestParamsValidation(t *testing.T) {
	k := sim.NewKernel(1)
	bad := []Params{
		{RangeMax: 0, RangeReliable: 1, BitrateMbps: 6, LoadWindow: time.Millisecond},
		{RangeMax: 300, RangeReliable: 0, BitrateMbps: 6, LoadWindow: time.Millisecond},
		{RangeMax: 300, RangeReliable: 400, BitrateMbps: 6, LoadWindow: time.Millisecond},
		{RangeMax: 300, RangeReliable: 150, BitrateMbps: 0, LoadWindow: time.Millisecond},
		{RangeMax: 300, RangeReliable: 150, BitrateMbps: 6, LoadWindow: 0},
	}
	for i, p := range bad {
		if _, err := NewMedium(k, testBounds(), p); err == nil {
			t.Errorf("params %d should be rejected", i)
		}
	}
	if _, err := NewMedium(nil, testBounds(), DefaultParams()); err == nil {
		t.Error("nil kernel should be rejected")
	}
}

func TestUnicastWithinReliableRangeDelivers(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	var got []Frame
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 180, Y: 100}) // 80 m apart
	m.Register(2, func(f Frame) { got = append(got, f) })
	m.Send(1, 2, 200, "hello")
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	f := got[0]
	if f.From != 1 || f.To != 2 || f.Payload != "hello" || f.Size != 200 {
		t.Errorf("frame = %+v", f)
	}
	st := m.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeliveryHasTransmissionDelay(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	var deliveredAt sim.Time
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 150, Y: 100})
	m.Register(2, func(f Frame) { deliveredAt = k.Now() })
	m.Send(1, 2, 6000, nil) // 6000 B at 6 Mbps = 8 ms
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if deliveredAt < 8*time.Millisecond {
		t.Errorf("delivered at %v, want >= 8ms tx delay", deliveredAt)
	}
	if deliveredAt > 9*time.Millisecond {
		t.Errorf("delivered at %v, want ~8ms", deliveredAt)
	}
}

func TestOutOfRangeNeverDelivers(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	delivered := false
	m.UpdatePosition(1, geo.Point{X: 0, Y: 0})
	m.UpdatePosition(2, geo.Point{X: 1000, Y: 0})
	m.Register(2, func(Frame) { delivered = true })
	for i := 0; i < 50; i++ {
		m.Send(1, 2, 100, nil)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("frame delivered beyond RangeMax")
	}
	if st := m.Stats(); st.LostRange != 50 {
		t.Errorf("LostRange = %d, want 50", st.LostRange)
	}
}

func TestFadeZoneIsProbabilistic(t *testing.T) {
	k := sim.NewKernel(7)
	m := newTestMedium(t, k)
	count := 0
	m.UpdatePosition(1, geo.Point{X: 0, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 225, Y: 100}) // midway in fade zone
	m.Register(2, func(Frame) { count++ })
	const n = 400
	for i := 0; i < n; i++ {
		m.Send(1, 2, 100, nil)
	}
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Per-attempt p = (1-0.5)^2 = 0.25 at the fade-zone midpoint; with
	// the default 3 unicast retries, p_eff = 1-(1-0.25)^4 ≈ 0.68.
	if count < n/2 || count > n*4/5 {
		t.Errorf("fade-zone deliveries = %d/%d, want around 68%%", count, n)
	}
}

func TestBroadcastReachesAllInRange(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 1000, Y: 1000})
	received := map[NodeID]bool{}
	for i := NodeID(2); i <= 6; i++ {
		i := i
		m.Register(i, func(Frame) { received[i] = true })
	}
	m.UpdatePosition(2, geo.Point{X: 1050, Y: 1000}) // in range
	m.UpdatePosition(3, geo.Point{X: 1100, Y: 1000}) // in range
	m.UpdatePosition(4, geo.Point{X: 2000, Y: 1000}) // out of range
	m.UpdatePosition(5, geo.Point{X: 1000, Y: 1120}) // in range
	m.UpdatePosition(6, geo.Point{X: 990, Y: 995})   // in range
	m.Send(1, Broadcast, 100, "beacon")
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range []NodeID{2, 3, 5, 6} {
		if !received[id] {
			t.Errorf("node %d missed broadcast", id)
		}
	}
	if received[4] {
		t.Error("out-of-range node received broadcast")
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	heard := false
	m.Register(1, func(Frame) { heard = true })
	m.Send(1, Broadcast, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if heard {
		t.Error("sender heard its own broadcast")
	}
}

func TestUnregisteredNodeGetsNothing(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 150, Y: 100})
	// Node 2 has no handler; Send must not panic.
	m.Send(1, 2, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Delivered != 0 {
		t.Errorf("Delivered = %d, want 0", st.Delivered)
	}
}

func TestSendFromUnknownPositionIsNoop(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.Send(99, Broadcast, 100, nil)
	if st := m.Stats(); st.Sent != 0 {
		t.Errorf("Sent = %d, want 0", st.Sent)
	}
}

func TestUnregisterRemovesNode(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 150, Y: 100})
	got := 0
	m.Register(2, func(Frame) { got++ })
	m.Unregister(2)
	m.Send(1, 2, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("unregistered node received frame")
	}
	if _, ok := m.Position(2); ok {
		t.Error("unregistered node still has position")
	}
}

// rsuBase is where scenario numbers RSUs from: the second dense run of
// ids the handler table is shaped for.
const rsuBase NodeID = 1 << 20

// TestHandlerTableMatchesMapModel drives random Register, Unregister,
// re-register and lookup over every kind of id — the two dense runs, one
// far outlier, negatives — against the plain map the paged table replaced.
func TestHandlerTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := newTestMedium(t, sim.NewKernel(seed))
		rng := rand.New(rand.NewSource(seed))
		model := make(map[NodeID]int)
		hit := 0
		for op := 0; op < 4000; op++ {
			var id NodeID
			switch rng.Intn(8) {
			case 0:
				id = rsuBase + NodeID(rng.Intn(64))
			case 1:
				id = []NodeID{1 << 30, Broadcast, -2, -1 << 10, math.MinInt32}[rng.Intn(5)]
			default:
				id = NodeID(rng.Intn(2048))
			}
			switch rng.Intn(4) {
			case 0, 1:
				tag, pages := op+1, len(m.handlers)
				m.Register(id, func(Frame) { hit = tag })
				if id >= 0 {
					model[id] = tag
				} else if len(m.handlers) != pages {
					t.Fatalf("seed %d op %d: Register(%d) grew the directory to %d pages", seed, op, id, len(m.handlers))
				}
			case 2:
				if rng.Intn(2) == 0 {
					m.Unregister(id)
				} else {
					m.Register(id, nil)
				}
				delete(model, id)
			case 3:
				h, want := m.handler(id), model[id]
				if hit = 0; h != nil {
					h(Frame{})
				}
				if hit != want {
					t.Fatalf("seed %d op %d: handler(%d) is registration %d, model %d (0 = none)", seed, op, id, hit, want)
				}
			}
		}
	}
}

// TestUnregisterMidBroadcast: the first receiver to hear a broadcast
// unregisters the others from inside its handler; their receptions were
// already scheduled and still fire, and the next broadcast finds only the
// survivor.
func TestUnregisterMidBroadcast(t *testing.T) {
	k := sim.NewKernel(1)
	p := DefaultParams()
	p.CollisionFactor = 0
	m, err := NewMedium(k, testBounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	m.UpdatePosition(0, geo.Point{X: 1000, Y: 1000})
	heard := make(map[NodeID]int)
	for id := NodeID(1); id <= 3; id++ {
		m.UpdatePosition(id, geo.Point{X: 1000 + 10*float64(id), Y: 1000})
		m.Register(id, func(Frame) {
			heard[id]++
			if len(heard) == 1 {
				for other := NodeID(1); other <= 3; other++ {
					if other != id {
						m.Unregister(other)
					}
				}
			}
		})
	}
	m.Send(0, Broadcast, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(heard) != 3 || m.Stats().Delivered != 3 {
		t.Fatalf("first broadcast heard by %v, Delivered %d; want all three", heard, m.Stats().Delivered)
	}
	m.Send(0, Broadcast, 100, nil)
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if total := heard[1] + heard[2] + heard[3]; total != 4 || m.Stats().Delivered != 4 {
		t.Errorf("second broadcast: heard %v, Delivered %d; want one more reception", heard, m.Stats().Delivered)
	}
}

// TestNoHandlerNoDraw: a node needs both a position and a handler to be a
// reception candidate. One with a handler but no position is never
// reached; one with a position but no handler is passed over before any
// random draw, so registering or not never shifts the radio stream under
// the nodes that do receive.
func TestNoHandlerNoDraw(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	got := 0
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.Register(2, func(Frame) { got++ })           // registered, positionless
	m.UpdatePosition(3, geo.Point{X: 150, Y: 100}) // positioned, unregistered
	m.Register(-3, func(Frame) { got++ })
	m.UpdatePosition(-3, geo.Point{X: 120, Y: 100}) // positioned, but no endpoint
	m.Send(1, 2, 100, nil)
	m.Send(1, 3, 100, nil)
	m.Send(1, -3, 100, nil)
	m.Send(1, Broadcast, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); got != 0 || st.Delivered+st.LostRange+st.LostLoad != 0 {
		t.Errorf("%d frames handled, stats %+v; want no reception attempted", got, st)
	}
	if next, want := m.rng.Int63(), sim.NewKernel(1).NewStream("radio").Int63(); next != want {
		t.Errorf("radio stream advanced: next value %d, a fresh stream's first is %d", next, want)
	}
}

func TestHighLoadCausesCollisionLoss(t *testing.T) {
	k := sim.NewKernel(3)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 120, Y: 100})
	delivered := 0
	m.Register(2, func(Frame) { delivered++ })
	// Saturate: 200 × 1500 B back-to-back at the same instant.
	const n = 200
	for i := 0; i < n; i++ {
		m.Send(1, 2, 1500, nil)
	}
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.LostLoad == 0 {
		t.Error("saturated channel should lose frames to collisions")
	}
	if delivered == n {
		t.Error("all frames delivered under saturation")
	}
}

func TestLightLoadDeliversNearlyAll(t *testing.T) {
	k := sim.NewKernel(3)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 120, Y: 100})
	delivered := 0
	m.Register(2, func(Frame) { delivered++ })
	// 50 small beacons spaced 100 ms apart: negligible load.
	for i := 0; i < 50; i++ {
		i := i
		k.At(sim.Time(i)*100*time.Millisecond, func() { m.Send(1, 2, 100, i) })
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if delivered < 48 {
		t.Errorf("light-load deliveries = %d/50", delivered)
	}
}

func TestBlockedFilter(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 150, Y: 100})
	got := 0
	m.Register(2, func(Frame) { got++ })
	m.SetBlocked(func(from, to NodeID) bool { return from == 1 })
	m.Send(1, 2, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("blocked frame delivered")
	}
	m.SetBlocked(nil)
	m.Send(1, 2, 100, nil)
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Error("frame after unblock not delivered")
	}
}

func TestNeighbors(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 1000, Y: 1000})
	m.UpdatePosition(2, geo.Point{X: 1100, Y: 1000})
	m.UpdatePosition(3, geo.Point{X: 3000, Y: 3000})
	nbrs := m.Neighbors(nil, 1)
	if len(nbrs) != 1 || nbrs[0] != 2 {
		t.Errorf("Neighbors = %v, want [2]", nbrs)
	}
	if got := m.Neighbors(nil, 99); len(got) != 0 {
		t.Errorf("Neighbors of unknown node = %v", got)
	}
}

func TestUplinkValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := NewUplink(nil, DefaultUplinkParams()); err == nil {
		t.Error("nil kernel")
	}
	p := DefaultUplinkParams()
	p.BaseRTT = 0
	if _, err := NewUplink(k, p); err == nil {
		t.Error("zero RTT")
	}
	p = DefaultUplinkParams()
	p.BandwidthMbps = 0
	if _, err := NewUplink(k, p); err == nil {
		t.Error("zero bandwidth")
	}
	p = DefaultUplinkParams()
	p.LossProb = 1
	if _, err := NewUplink(k, p); err == nil {
		t.Error("loss prob 1")
	}
}

func TestUplinkRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	p := DefaultUplinkParams()
	p.LossProb = 0
	p.JitterFrac = 0
	u, err := NewUplink(k, p)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	if !u.RoundTrip(1000, 1000, func() { doneAt = k.Now() }) {
		t.Fatal("RoundTrip refused on healthy uplink")
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// 60 ms RTT + 16000 bits / 20 Mbps = 60.8 ms.
	if doneAt < 60*time.Millisecond || doneAt > 62*time.Millisecond {
		t.Errorf("round trip at %v, want ~60.8ms", doneAt)
	}
	sent, delivered, lost, dropped := u.Counters()
	if sent != 1 || delivered != 1 || lost != 0 || dropped != 0 {
		t.Errorf("counters = %d/%d/%d/%d", sent, delivered, lost, dropped)
	}
}

func TestUplinkOutage(t *testing.T) {
	k := sim.NewKernel(1)
	u, err := NewUplink(k, DefaultUplinkParams())
	if err != nil {
		t.Fatal(err)
	}
	u.SetAvailable(false)
	if u.Available() {
		t.Error("Available after SetAvailable(false)")
	}
	if u.RoundTrip(100, 100, func() { t.Error("callback ran during outage") }) {
		t.Error("RoundTrip should report false during outage")
	}
	// Outage mid-flight: start healthy, kill before delivery.
	u.SetAvailable(true)
	ran := false
	u.RoundTrip(100, 100, func() { ran = true })
	u.SetAvailable(false)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("callback ran despite mid-flight outage")
	}
}

func TestUplinkLoss(t *testing.T) {
	k := sim.NewKernel(5)
	p := DefaultUplinkParams()
	p.LossProb = 0.5
	p.JitterFrac = 0
	u, err := NewUplink(k, p)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 200; i++ {
		u.RoundTrip(10, 10, func() { done++ })
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if done < 60 || done > 140 {
		t.Errorf("deliveries with 50%% loss = %d/200", done)
	}
}

// TestBroadcastAllocs guards the zero-allocation broadcast path: once the
// medium's scratch buffers and delivery freelist are warm, a broadcast to
// N registered neighbors must not allocate at all.
func TestBroadcastAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	for i := 0; i < 20; i++ {
		id := NodeID(i)
		m.UpdatePosition(id, geo.Point{X: float64(1000 + i*10), Y: 1000})
		m.Register(id, func(Frame) {})
	}
	// Warm the scratch buffers, delivery freelist and kernel event pool.
	for i := 0; i < 10; i++ {
		m.Send(0, Broadcast, 100, nil)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Send(0, Broadcast, 100, nil)
		k.Run(0)
	})
	if allocs != 0 {
		t.Errorf("warm broadcast allocated %.1f times per Send+Run, want 0", allocs)
	}
}

var sinkHandler Handler

// BenchmarkDeliverLookup is deliver's handler lookup alone, over the id
// layout of a city run: 1000 vehicles from 0 and 16 RSUs from rsuBase.
func BenchmarkDeliverLookup(b *testing.B) {
	m := newTestMedium(b, sim.NewKernel(1))
	ids := make([]NodeID, 0, 1016)
	for i := 0; i < 1016; i++ {
		id := NodeID(i)
		if i >= 1000 {
			id = rsuBase + NodeID(i-1000)
		}
		ids = append(ids, id)
		m.Register(id, func(Frame) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHandler = m.handler(ids[i%len(ids)])
	}
}

func BenchmarkBroadcast100Nodes(b *testing.B) {
	k := sim.NewKernel(1)
	m, err := NewMedium(k, testBounds(), DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		id := NodeID(i)
		m.UpdatePosition(id, geo.Point{X: float64(1000 + i*5), Y: 1000})
		m.Register(id, func(Frame) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(0, Broadcast, 300, nil)
		k.Run(0)
	}
}
