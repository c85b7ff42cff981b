package radio

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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
	if f.From != 1 || f.Payload != "hello" {
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
		for op := 0; op < 6000; op++ {
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
				h, want := m.endpoint(id).h, model[id]
				if hit = 0; h != nil {
					h(Frame{})
				}
				if hit != want {
					t.Fatalf("seed %d op %d: endpoint(%d) runs registration %d, model %d (0 = none)", seed, op, id, hit, want)
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
	m.UpdatePosition(-3, geo.Point{X: 120, Y: 100}) // not an entry: the index drops it
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

// TestBeaconSchedulesNoEvent: a beacon's receptions are state. Handed to
// N inbox receivers it puts nothing on the kernel's queue; a receiver
// registered without an inbox hears no beacon and costs no radio draw; a
// spy still overhears it as an event.
func TestBeaconSchedulesNoEvent(t *testing.T) {
	k := sim.NewKernel(1)
	p := DefaultParams()
	p.CollisionFactor = 0
	m, err := NewMedium(k, testBounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	inboxes := make([]testInbox, n)
	handled := 0
	for i := range n + 1 {
		id := NodeID(i)
		m.UpdatePosition(id, geo.Point{X: float64(1000 + 10*i), Y: 1000})
		if i == 0 {
			m.Register(id, func(Frame) {})
			continue
		}
		m.Register(id, func(Frame) { handled++ }, inboxes[i-1].arrive)
	}
	// Handler-only and positioned: in range, yet no beacon candidate.
	m.UpdatePosition(50, geo.Point{X: 1005, Y: 1000})
	m.Register(50, func(Frame) { handled++ })

	before := k.Pending()
	m.Beacon(0, 300, "b1")
	if got := k.Pending(); got != before {
		t.Errorf("a beacon to %d inbox receivers left %d events pending, want %d", n, got, before)
	}
	for i, in := range inboxes {
		if len(in.at) != 1 || in.at[0] <= k.Now() || in.at[0] > k.Now()+time.Millisecond {
			t.Errorf("inbox %d was handed arrivals %v at %v, want one within the frame's delay", i+1, in.at, k.Now())
		}
	}
	if st := m.Stats(); handled != 0 || st.Delivered != n || st.LostRange+st.LostLoad != 0 {
		t.Errorf("handlers ran %d times, stats %+v; want no handler and %d deliveries", handled, st, n)
	}
	if next, want := m.rng.Int63(), radioStreamAfter(n); next != want {
		t.Errorf("radio stream: next value %d, want %d (draws for the %d inbox receivers only)", next, want, n)
	}

	var overheard []Frame
	m.UpdatePosition(60, geo.Point{X: 1000, Y: 1010})
	m.SetPromiscuous(60, func(f Frame) { overheard = append(overheard, f) })
	before = k.Pending()
	m.Beacon(0, 300, "b2")
	if got := k.Pending(); got != before+1 {
		t.Errorf("a beacon with one spy in range left %d events pending, want %d", got, before+1)
	}
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(overheard) != 1 || overheard[0].Payload != "b2" {
		t.Errorf("the spy overheard %+v, want the beacon once", overheard)
	}
}

// radioStreamAfter returns the value a fresh seed-1 radio stream yields
// after n certain, collision-free receptions: a fade draw, a collision
// draw and a jitter draw each.
func radioStreamAfter(n int) int64 {
	rng := sim.NewKernel(1).NewStream("radio")
	for range n {
		rng.Float64()
		rng.Float64()
		rng.Int63n(int64(500 * time.Microsecond))
	}
	return rng.Int63()
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

// TestStormLeavesDistantClusterAlone: a beacon storm in one loaded
// cluster leaves the collision losses of another, more than three cells
// away, exactly as they were without it. The storm's beacons reach no
// inbox, so they take no radio draw, and the stream behind the other
// cluster's verdicts runs the same with and without them.
func TestStormLeavesDistantClusterAlone(t *testing.T) {
	const n = 2000
	run := func(storm bool) Stats {
		k := sim.NewKernel(9)
		m := newTestMedium(t, k)
		in := func(any, sim.Time) {}
		for i := 0; i < 20; i++ {
			quiet, loud := NodeID(i), NodeID(100+i)
			m.UpdatePosition(quiet, geo.Point{X: 4000 + float64(i)*5, Y: 4000}) // cell (13, 13)
			m.Register(quiet, func(Frame) {}, in)
			m.UpdatePosition(loud, geo.Point{X: 500 + float64(i)*5, Y: 500}) // cell (1, 1)
			m.Register(loud, func(Frame) {})
		}
		for i := 0; i < n; i++ {
			at := sim.Time(i) * time.Millisecond
			k.At(at, func() { m.Beacon(NodeID(i%20), 300, nil) })
			if storm {
				k.At(at, func() { m.Beacon(NodeID(100+i%20), 1500, nil) })
			}
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	calm, stormy := run(false), run(true)
	if calm.LostLoad == 0 || calm.Delivered == 0 {
		t.Fatalf("the quiet cluster is not loaded: %+v", calm)
	}
	if stormy.Sent != calm.Sent+n {
		t.Fatalf("%d frames sent with the storm, %d without: the storm did not run", stormy.Sent, calm.Sent)
	}
	if stormy.LostLoad != calm.LostLoad || stormy.Delivered != calm.Delivered || stormy.LostRange != calm.LostRange {
		t.Errorf("a storm 3.5 km away moved the quiet cluster: %+v, without it %+v", stormy, calm)
	}
}

// TestFlooderLoadsOnlyItsBlock: a flooder raises the collision losses of
// a frame only when the frame's sender sits in one of the 3×3 cells
// around the flooder's. Each sender probes on a medium of its own, with
// and without the flooder; the flood's beacons reach no inbox and take no
// radio draw.
func TestFlooderLoadsOnlyItsBlock(t *testing.T) {
	flooder := geo.Point{X: 1650, Y: 1650} // cell (5, 5) of the 300 m grid
	for _, tc := range []struct {
		at   geo.Point
		near bool
	}{
		{geo.Point{X: 1700, Y: 1600}, true},  // (5, 5), the flooder's own cell
		{geo.Point{X: 1400, Y: 1650}, true},  // (4, 5)
		{geo.Point{X: 1950, Y: 1950}, true},  // (6, 6)
		{geo.Point{X: 1100, Y: 1650}, false}, // (3, 5)
		{geo.Point{X: 1650, Y: 2200}, false}, // (5, 7)
		{geo.Point{X: 2250, Y: 1250}, false}, // (7, 4)
	} {
		lost := func(flood bool) uint64 {
			k := sim.NewKernel(4)
			m := newTestMedium(t, k)
			m.UpdatePosition(0, tc.at)
			m.UpdatePosition(1, geo.Point{X: tc.at.X, Y: tc.at.Y + 20})
			m.Register(1, func(Frame) {})
			m.UpdatePosition(2, flooder)
			for i := 0; i < 500; i++ {
				at := sim.Time(i) * time.Millisecond
				if flood {
					k.At(at, func() { m.Beacon(2, 1500, nil) })
				}
				k.At(at, func() { m.Send(0, 1, 300, nil) })
			}
			if err := k.Run(0); err != nil {
				t.Fatal(err)
			}
			return m.Stats().LostLoad
		}
		quiet, flooded := lost(false), lost(true)
		if tc.near && flooded <= quiet {
			t.Errorf("sender at %v, in the flooder's block: %d frames lost to load with the flood, %d without", tc.at, flooded, quiet)
		}
		if !tc.near && flooded != quiet {
			t.Errorf("sender at %v, outside the flooder's block: %d frames lost to load with the flood, %d without", tc.at, flooded, quiet)
		}
	}
}

// TestLoadLossHoldsAtFixedDensity: on a line of nodes 30 m apart, each
// beaconing 300 B every 500 ms from a phase of its own, the share of
// receptions lost to load follows the density, which is fixed, and not
// the size of the fleet.
func TestLoadLossHoldsAtFixedDensity(t *testing.T) {
	share := func(n int) float64 {
		k := sim.NewKernel(5)
		m, err := NewMedium(k, geo.NewRect(geo.Point{}, geo.Point{X: 30 * float64(n), Y: 300}), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		phase := rand.New(rand.NewSource(5))
		in := func(any, sim.Time) {}
		const period = 500 * time.Millisecond
		for i := 0; i < n; i++ {
			id := NodeID(i)
			m.UpdatePosition(id, geo.Point{X: 15 + 30*float64(i), Y: 150})
			m.Register(id, func(Frame) {}, in)
			k.At(sim.Time(phase.Int63n(int64(period))), func() {
				m.Beacon(id, 300, nil)
				if _, err := k.Every(period, func() { m.Beacon(id, 300, nil) }); err != nil {
					t.Error(err)
				}
			})
		}
		if err := k.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		return float64(st.LostLoad) / float64(st.Delivered+st.LostRange+st.LostLoad)
	}
	base := share(400)
	if base == 0 {
		t.Fatal("no reception lost to load at 400 nodes: the comparison proves nothing")
	}
	for _, n := range []int{1600, 3200} {
		if got := share(n); math.Abs(got-base) > 0.2*base {
			t.Errorf("%d nodes: %.4f of receptions lost to load, %.4f at 400 nodes", n, got, base)
		}
	}
}

func TestBlockedFilter(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	m.UpdatePosition(1, geo.Point{X: 100, Y: 100})
	m.UpdatePosition(2, geo.Point{X: 150, Y: 100})
	got := 0
	m.Register(2, func(Frame) { got++ })
	m.Faults().Crash(1)
	m.Send(1, 2, 100, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 || m.Faults().Dropped() != 1 {
		t.Errorf("crashed sender: %d delivered, %d dropped; want 0 and 1", got, m.Faults().Dropped())
	}
	m.Faults().Recover(1)
	m.Send(1, 2, 100, nil)
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Error("frame after recover not delivered")
	}
}

// TestFaultTableHeals: isolations and partitions stay in install order
// whatever order they heal in, a second heal is a no-op, and Reset clears
// every fault but keeps the drop count.
func TestFaultTableHeals(t *testing.T) {
	var ft FaultTable
	var heals []func()
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			heals = append(heals, ft.Isolate(map[NodeID]bool{NodeID(i): true}))
		} else {
			heals = append(heals, ft.Partition(geo.Point{X: float64(i)}, 1))
		}
	}
	for _, i := range []int{3, 0, 3, 4} {
		heals[i]()
	}
	ids := func() (iso, part []int) {
		for _, x := range ft.isolations {
			iso = append(iso, x.id)
		}
		for _, p := range ft.partitions {
			part = append(part, p.id)
		}
		return iso, part
	}
	if iso, part := ids(); !slices.Equal(iso, []int{3}) || !slices.Equal(part, []int{2, 6}) {
		t.Errorf("after heals: isolations %v, partitions %v; want [3] and [2 6]", iso, part)
	}
	ft.Crash(7)
	ft.SetLoss(0.5)
	ft.dropped = 9
	ft.Reset()
	if ft.active() || ft.Crashed(7) || ft.Dropped() != 9 {
		t.Errorf("after Reset: active %v, crashed %v, dropped %d; want false, false, 9", ft.active(), ft.Crashed(7), ft.Dropped())
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
// medium's scratch buffers and frame-run pool are warm, a broadcast to N
// registered neighbors must not allocate at all, with or without faults
// installed; nor must a warm beacon to neighbors that keep an inbox.
func TestBroadcastAllocs(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	inboxes := make([]testInbox, 10)
	for i := 0; i < 20; i++ {
		id := NodeID(i)
		m.UpdatePosition(id, geo.Point{X: float64(1000 + i*10), Y: 1000})
		if i < 10 {
			m.Register(id, func(Frame) {})
			continue
		}
		m.Register(id, func(Frame) {}, inboxes[i-10].arrive)
	}
	payload := &msg{}
	heard := 0
	for faults := range 2 {
		if faults == 1 {
			ft := m.Faults()
			ft.Crash(19)
			ft.Isolate(map[NodeID]bool{18: true})
			ft.Partition(geo.Point{X: 1170, Y: 1000}, 5)
			ft.Partition(geo.Point{X: 1000, Y: 1000}, 1)
			ft.SetLoss(0.2)
		}
		// Warm the scratch buffers, frame-run pool and kernel event pool.
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
			t.Errorf("faults %v: warm broadcast allocated %.1f times per Send+Run, want 0", faults == 1, allocs)
		}
		for i := 0; i < 10; i++ {
			m.Beacon(0, 300, payload)
			if err := k.Run(k.Now() + time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(200, func() {
			for i := range inboxes {
				inboxes[i].at = inboxes[i].at[:0]
			}
			m.Beacon(0, 300, payload)
			k.Run(k.Now() + time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("faults %v: warm beacon allocated %.1f times per Beacon+Run, want 0", faults == 1, allocs)
		}
		for _, in := range inboxes {
			heard += len(in.at)
		}
	}
	if heard == 0 {
		t.Error("no inbox was handed a beacon")
	}
}

// testInbox keeps the arrival instant of every beacon handed to it.
type testInbox struct{ at []sim.Time }

func (in *testInbox) arrive(_ any, at sim.Time) { in.at = append(in.at, at) }

// TestRunsPoolBySize: a unicast after a broadcast takes a small run, not
// the broadcast's, and each class's runs go back to their own pool.
func TestRunsPoolBySize(t *testing.T) {
	k := sim.NewKernel(1)
	m := newTestMedium(t, k)
	for i := 0; i < 20; i++ {
		m.UpdatePosition(NodeID(i), geo.Point{X: float64(1000 + i*10), Y: 1000})
		m.Register(NodeID(i), func(Frame) {})
	}
	for _, to := range []NodeID{Broadcast, 1, Broadcast, 2} {
		m.Send(0, to, 100, nil)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	small, large := m.freeRuns[0], m.freeRuns[1]
	if len(small) != 1 || len(large) != 1 {
		t.Fatalf("pools hold %d small and %d large runs, want one of each", len(small), len(large))
	}
	if cap(small[0].rx) > smallRun || cap(large[0].rx) < 19 {
		t.Errorf("run capacities %d and %d, want at most %d and at least 19", cap(small[0].rx), cap(large[0].rx), smallRun)
	}
}

// TestLastReceptionRecyclesItsRun: whichever reception of a frame fires
// last hands the frame's run back to its pool before its handler runs and
// still shows that handler its own frame; a handler that transmits from
// there reuses the run, and every reception of the new frame arrives
// whole.
func TestLastReceptionRecyclesItsRun(t *testing.T) {
	k := sim.NewKernel(1)
	p := DefaultParams()
	p.CollisionFactor = 0
	m, err := NewMedium(k, testBounds(), p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7 // a sender and six receivers: a large run
	type delivery struct {
		to NodeID
		f  Frame
	}
	var log []delivery
	relay, sentB := NodeID(-1), sim.Time(0)
	for i := 0; i < n; i++ {
		id := NodeID(i)
		m.UpdatePosition(id, geo.Point{X: float64(1000 + 10*i), Y: 1000})
		m.Register(id, func(f Frame) {
			log = append(log, delivery{id, f})
			if f.Payload != "A" || len(log) != n-1 {
				return
			}
			free := m.freeRuns[runClass(n-1)]
			if len(free) != 1 {
				t.Fatalf("last reception of A: %d runs pooled, want A's", len(free))
			}
			run := free[0]
			relay, sentB = id, k.Now()
			m.Send(id, Broadcast, 200, "B")
			if len(m.freeRuns[runClass(n-1)]) != 0 || run.f.Payload != "B" {
				t.Errorf("B did not take A's pooled run (it holds %v)", run.f.Payload)
			}
		})
	}
	m.Send(0, Broadcast, 300, "A")
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2*(n-1) || relay < 0 {
		t.Fatalf("%d receptions (relay %d), want %d of A then %d of B", len(log), relay, n-1, n-1)
	}
	heard := make(map[delivery]bool)
	for i, d := range log {
		want := Frame{From: 0, Payload: "A"}
		if i >= n-1 {
			want = Frame{From: relay, Payload: "B", SentAt: sentB}
		}
		if d.f != want || d.to == want.From || heard[d] {
			t.Errorf("reception %d at node %d: %+v, want %+v once at every other node", i, d.to, d.f, want)
		}
		heard[d] = true
	}
	if s := m.Stats(); s.Delivered != 2*(n-1) {
		t.Errorf("Delivered = %d, want %d", s.Delivered, 2*(n-1))
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
		sinkHandler = m.endpoint(ids[i%len(ids)]).h
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

// ---------------------------------------------------------------------
// Reference model: Medium.Send as it was before a frame's receptions were
// pooled in one frame run, before the fault verdicts were taken per
// frame and before beacon receptions at an inbox became data — each
// reception its own kernel event, scheduled the moment it is decided, in
// receiver order, the spies' after them, and every (sender, receiver) pair
// judged by the per-pair fault filter the fault injector used to install,
// positions looked up for both ends. A beacon reaches only the receivers
// that keep an inbox, each handed its reception as it is decided and
// counted as Delivered then; the spies' overhearing is scheduled after.
// TestSendMatchesPerReceiverModel drives it and Send from one seed and
// requires the same observable history.

// refReception is one reception as the model schedules it.
type refReception struct {
	m     *Medium
	h     Handler
	f     Frame
	count bool
}

func refFire(a any) {
	r := a.(*refReception)
	if r.count {
		r.m.stats.Delivered++
	}
	r.h(r.f)
}

// refBlocked is the per-pair fault filter: crash, isolation, partition,
// then a loss draw, every drop counted.
func refBlocked(m *Medium, from, to NodeID) bool {
	t := &m.faults
	cut := t.dead[from] || t.dead[to]
	for _, iso := range t.isolations {
		cut = cut || iso.set[from] != iso.set[to]
	}
	fp, fok := m.index.Position(int32(from))
	tp, tok := m.index.Position(int32(to))
	for _, p := range t.partitions {
		cut = cut || (fok && tok && (fp.Dist(p.center) <= p.radius) != (tp.Dist(p.center) <= p.radius))
	}
	if cut || (t.loss > 0 && t.rng.Float64() < t.loss) {
		t.dropped++
		return true
	}
	return false
}

// refSend sends a frame, a beacon if beacon is set.
func refSend(m *Medium, from, to NodeID, size int, payload any, beacon bool) {
	src, ok := m.index.Position(int32(from))
	if !ok {
		return
	}
	if size < 1 {
		size = 1
	}
	m.stats.Sent++
	m.stats.BytesOnAir += uint64(size)
	// The load: every cell at most one column and one row from the
	// sender's, each aged to now, summed in row-major order; then the
	// frame's airtime charged to the sender's own cell.
	now := m.kernel.Now()
	cx, cy, cols, _ := m.index.Cell(src)
	var airtime float64
	for key := range m.load {
		x, y := key%cols, key/cols
		if x < cx-1 || x > cx+1 || y < cy-1 || y > cy+1 {
			continue
		}
		c := &m.load[key]
		if now > c.last {
			c.airtime *= math.Exp(-float64(now-c.last) / float64(m.params.LoadWindow))
			c.last = now
		}
		airtime += c.airtime
	}
	m.load[cy*cols+cx].airtime += float64(m.params.Airtime(size)) / float64(time.Second)
	busy := airtime / (float64(m.params.LoadWindow) / float64(time.Second))
	pCollide := min(m.params.MaxCollisionLoss, m.params.CollisionFactor*min(busy, 1))
	f := Frame{From: from, Payload: payload, SentAt: now}
	// scheduleNow schedules whatever deliver (with the faults already
	// judged here) or a spy collected, one event per reception.
	scheduleNow := func() {
		for _, r := range m.rx {
			m.kernel.AtArg(now+r.delay, refFire, &refReception{m, r.h, f, r.count})
		}
		m.rx = m.rx[:0]
	}
	decide := func(dst NodeID, p geo.Point, retries int) {
		if refBlocked(m, from, dst) || beacon && m.endpoint(dst).in == nil {
			return
		}
		ep, delay, ok := m.deliver(dst, src, p, m.params.Airtime(size), retries, pCollide, false, false)
		if !ok {
			return
		}
		if beacon {
			m.stats.Delivered++
			ep.in(payload, now+delay)
			return
		}
		m.rx = append(m.rx, reception{delay: delay, h: ep.h, count: true})
		scheduleNow()
	}
	if to == Broadcast {
		m.scratchIDs, m.scratchPos = m.index.WithinRangePos(
			m.scratchIDs[:0], m.scratchPos[:0], src, m.params.RangeMax, int32(from))
		for i, raw := range m.scratchIDs {
			decide(NodeID(raw), m.scratchPos[i], 0)
		}
	} else if p, ok := m.index.Position(int32(to)); ok {
		decide(to, p, max(m.params.UnicastRetries, 0))
	}
	for _, sp := range m.spies {
		if sp.id == from || sp.id == to {
			continue
		}
		p, ok := m.index.Position(int32(sp.id))
		if !ok {
			continue
		}
		if m.rng.Float64() >= m.params.ReceptionProb(src.Dist(p)) {
			continue
		}
		m.rx = append(m.rx, reception{delay: m.params.Airtime(size), h: sp.h, count: false})
		scheduleNow()
	}
}

// heard is one reception as an observer sees it: a handler invocation, or
// an inbox hand-over, which shows only the payload and the arrival
// instant. Delivered is Stats().Delivered counting it.
type heard struct {
	At        sim.Time
	Rx        NodeID
	F         Frame
	Delivered uint64
}

// msg is the payload the differential's nodes exchange; Hop bounds how
// far reply chains go.
type msg struct{ Op, Hop int }

// radioSide is one medium under the differential program, with the send
// and beacon functions it is driven through.
type radioSide struct {
	k      *sim.Kernel
	m      *Medium
	send   func(from, to NodeID, size int, payload any)
	beacon func(from NodeID, size int, payload any)
	handed int // inbox receptions handed over
	log    []heard
}

// inbox returns id's radio.Inbox, which logs the reception as it is
// handed over.
func (s *radioSide) inbox(id NodeID) Inbox {
	return func(p any, at sim.Time) {
		s.log = append(s.log, heard{at, id, Frame{Payload: p}, s.m.Stats().Delivered})
		s.handed++
	}
}

const diffNodes = 40

// handler logs each reception and reacts by a rule of (op, hop, node):
// reply by unicast, rebroadcast, or unregister another node from inside
// a broadcast's delivery.
func (s *radioSide) handler(id NodeID) Handler {
	return func(f Frame) {
		s.log = append(s.log, heard{s.k.Now(), id, f, s.m.Stats().Delivered})
		p, ok := f.Payload.(msg)
		if !ok || p.Hop >= 2 {
			return
		}
		switch (p.Op + int(id)) % 9 {
		case 0:
			s.send(id, f.From, 200, msg{p.Op, p.Hop + 1})
		case 1:
			s.send(id, Broadcast, 100, msg{p.Op, p.Hop + 1})
		case 2:
			s.m.Unregister((id + NodeID(p.Op)) % diffNodes)
		}
	}
}

// spy logs an overheard frame under the spy's id, negated.
func (s *radioSide) spy(id NodeID) Handler {
	return func(f Frame) {
		s.log = append(s.log, heard{s.k.Now(), -id, f, s.m.Stats().Delivered})
	}
}

// run replays the program seed generates: a dense neighbourhood with
// some nodes in the fade zone, every odd-numbered registered node keeping
// an inbox, three spies, and a fault table with two crashed nodes, one
// isolation, two partitions and loss; then timed broadcasts, beacons and
// unicasts, moves, re-registrations (which replace the inbox too: an odd
// node passes one on every other re-registration), crashes, recoveries,
// heals and loss changes.
func (s *radioSide) run(t *testing.T, seed int64) {
	prog := rand.New(rand.NewSource(seed))
	for id := NodeID(0); id < diffNodes; id++ {
		s.m.UpdatePosition(id, geo.Point{X: 1000 + prog.Float64()*500, Y: 1000 + prog.Float64()*150})
		switch {
		case id%7 == 6:
		case id%2 == 1:
			s.m.Register(id, s.handler(id), s.inbox(id))
		default:
			s.m.Register(id, s.handler(id))
		}
	}
	for _, id := range []NodeID{3, 11, 29} {
		s.m.SetPromiscuous(id, s.spy(id))
	}
	ft := s.m.Faults()
	ft.Crash(5)
	ft.Crash(21)
	healIso := ft.Isolate(map[NodeID]bool{2: true, 9: true, 33: true})
	healA := ft.Partition(geo.Point{X: 1150, Y: 1050}, 70)
	ft.Partition(geo.Point{X: 1400, Y: 1100}, 50)
	ft.SetLoss(0.1)
	for op := 0; op < 600; op++ {
		at := sim.Time(prog.Intn(3000)) * time.Millisecond
		from := NodeID(prog.Intn(diffNodes))
		kind, arg := prog.Intn(12), prog.Intn(diffNodes)
		size := 50 + prog.Intn(1500)
		s.k.At(at, func() {
			switch kind {
			case 0, 1:
				s.send(from, Broadcast, size, msg{op, 0})
			case 2, 3, 4, 5:
				s.beacon(from, 300, msg{op, 0})
			case 6, 7, 8:
				s.send(from, NodeID(arg), size, msg{op, 0})
			case 9:
				s.m.UpdatePosition(from, geo.Point{X: 1000 + float64(arg)*15, Y: 1100})
			case 10:
				if from%2 == 1 && op%2 == 0 {
					s.m.Register(from, s.handler(from), s.inbox(from))
				} else {
					s.m.Register(from, s.handler(from))
				}
			case 11:
				switch op % 5 {
				case 0:
					ft.Crash(NodeID(arg))
				case 1:
					ft.Recover(NodeID(arg))
				case 2:
					healA()
				case 3:
					healIso()
				case 4:
					ft.SetLoss(float64(arg%3) / 10)
				}
			}
		})
	}
	if err := s.k.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestSendMatchesPerReceiverModel: Send, which takes the sender's fault
// verdicts once per frame and schedules the frame's receptions from one
// pooled frame run, must be indistinguishable from judging every pair and
// scheduling each reception as it is decided — the same (Now, receiver,
// frame) handler sequence, the same Stats(), the same drop count and the
// same next radio- and faults-stream values — through broadcasts,
// unicasts with ARQ in the fade zone and under load, spies overhearing at
// one shared instant, faults installed and healed, and handlers that
// transmit or unregister other nodes mid-broadcast. Beacons reach inbox
// receivers as data, handed over and counted in Stats().Delivered as each
// reception is decided.
func TestSendMatchesPerReceiverModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		sides := [2]*radioSide{}
		for i := range sides {
			k := sim.NewKernel(seed)
			s := &radioSide{k: k, m: newTestMedium(t, k)}
			s.send, s.beacon = s.m.Send, s.m.Beacon
			if i == 1 {
				s.send = func(from, to NodeID, size int, payload any) { refSend(s.m, from, to, size, payload, false) }
				s.beacon = func(from NodeID, size int, payload any) { refSend(s.m, from, Broadcast, size, payload, true) }
			}
			s.run(t, seed)
			sides[i] = s
		}
		got, want := sides[0], sides[1]
		if len(got.log) < 1000 || got.handed < 100 {
			t.Fatalf("seed %d: only %d receptions, %d of them at inboxes; the program is too sparse to compare", seed, len(got.log), got.handed)
		}
		if !reflect.DeepEqual(got.log, want.log) {
			for i := range got.log {
				if i >= len(want.log) || got.log[i] != want.log[i] {
					t.Fatalf("seed %d: reception %d differs: got %+v, model %+v", seed, i, got.log[i], want.log[min(i, len(want.log)-1)])
				}
			}
			t.Fatalf("seed %d: got %d receptions, model %d", seed, len(got.log), len(want.log))
		}
		if g, w := got.m.Stats(), want.m.Stats(); g != w {
			t.Errorf("seed %d: Stats() = %+v, model %+v", seed, g, w)
		}
		if g, w := got.m.rng.Int63(), want.m.rng.Int63(); g != w {
			t.Errorf("seed %d: next radio-stream value %d, model %d", seed, g, w)
		}
		if g, w := got.m.faults.Dropped(), want.m.faults.Dropped(); g != w || g == 0 {
			t.Errorf("seed %d: %d receptions dropped by faults, model %d (want equal and nonzero)", seed, g, w)
		}
		if g, w := got.m.faults.rng.Int63(), want.m.faults.rng.Int63(); g != w {
			t.Errorf("seed %d: next faults-stream value %d, model %d", seed, g, w)
		}
	}
}
