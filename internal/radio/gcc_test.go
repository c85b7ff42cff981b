package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/sim"
)

// feedGroups drives an estimator with synthetic arrival groups: n groups
// spaced spacing apart in send time, where queueAt(i) gives the one-way
// queueing delay (ms) experienced by group i. Returns the estimator.
func feedGroups(e *BWEstimator, n int, spacing sim.Time, queueAt func(i int) float64) {
	base := 30 * time.Millisecond
	for i := 0; i < n; i++ {
		send := sim.Time(i) * spacing
		arrival := send + base + sim.Time(queueAt(i)*float64(time.Millisecond))
		e.OnAck(send, arrival, 1200)
	}
}

// Property (satellite c): the trendline slope sign tracks injected queue
// growth and drain.
func TestTrendlineSlopeSign(t *testing.T) {
	grow := NewBWEstimator(BWEConfig{MaxBps: 20e6})
	feedGroups(grow, 40, 10*time.Millisecond, func(i int) float64 { return float64(i) * 2 }) // queue builds 2 ms/group
	if grow.Trend() <= 0 {
		t.Errorf("trend under queue growth = %v, want > 0", grow.Trend())
	}

	drain := NewBWEstimator(BWEConfig{MaxBps: 20e6})
	feedGroups(drain, 40, 10*time.Millisecond, func(i int) float64 { return float64(80 - i*2) }) // queue drains 2 ms/group
	if drain.Trend() >= 0 {
		t.Errorf("trend under queue drain = %v, want < 0", drain.Trend())
	}

	flat := NewBWEstimator(BWEConfig{MaxBps: 20e6})
	feedGroups(flat, 40, 10*time.Millisecond, func(i int) float64 { return 5 })
	if flat.State() != "normal" {
		t.Errorf("steady queue detector state = %q, want normal", flat.State())
	}
}

// Property (satellite c): no feedback pattern — growth, drain, loss
// storms, silence — pushes the published estimate outside the configured
// channel bounds.
func TestEstimateWithinCapacity(t *testing.T) {
	cfg := BWEConfig{MinBps: 50e3, MaxBps: 8e6}
	e := NewBWEstimator(cfg)
	rng := rand.New(rand.NewSource(7))
	var send, arrival sim.Time
	check := func(step string) {
		if got := e.TargetBps(); got < cfg.MinBps || got > cfg.MaxBps {
			t.Fatalf("%s: estimate %v outside [%v, %v]", step, got, cfg.MinBps, cfg.MaxBps)
		}
	}
	check("initial")
	for i := 0; i < 5000; i++ {
		send += sim.Time(rng.Intn(30)+1) * time.Millisecond
		queue := sim.Time(rng.Intn(200)) * time.Millisecond
		if arrival < send {
			arrival = send
		}
		arrival += 30*time.Millisecond + queue
		switch rng.Intn(10) {
		case 0, 1, 2:
			e.OnLost(send)
		default:
			e.OnAck(send, arrival, 1500)
		}
		check(fmt.Sprintf("step %d", i))
	}
	// A long loss-free, queue-free stretch must converge toward — but
	// never beyond — capacity.
	for i := 0; i < 2000; i++ {
		send += 10 * time.Millisecond
		e.OnAck(send, send+30*time.Millisecond, 1500)
		check(fmt.Sprintf("ramp %d", i))
	}
}

// Property (satellite c): two senders on identically-seeded kernels
// produce bit-identical estimate traces.
func TestEstimateTraceDeterminism(t *testing.T) {
	trace := func() []float64 {
		k := sim.NewKernel(99)
		p := DefaultUplinkParams()
		p.BandwidthMbps = 2
		p.LossProb = 0.05
		u, err := NewUplink(k, p)
		if err != nil {
			t.Fatal(err)
		}
		s := u.NewSender(BWEConfig{})
		var out []float64
		tick := func() { out = append(out, s.EstimateBps(), s.LossRate()) }
		var send func()
		send = func() {
			s.RoundTrip(8000, 2000, nil)
			tick()
			if k.Now() < 20*time.Second {
				k.After(40*time.Millisecond, send)
			}
		}
		k.After(0, send)
		if err := k.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// An uplink serializes concurrent transfers: the second of two
// simultaneous exchanges waits for the first's serialization time, and a
// backlog beyond MaxQueueDelay tail-drops into the Dropped counter.
func TestUplinkContention(t *testing.T) {
	k := sim.NewKernel(1)
	p := DefaultUplinkParams()
	p.LossProb = 0
	p.JitterFrac = 0
	p.BandwidthMbps = 1 // 125 kB/s: big transfers make queueing visible
	p.MaxQueueDelay = 3 * time.Second
	u, err := NewUplink(k, p)
	if err != nil {
		t.Fatal(err)
	}
	var first, second sim.Time
	u.RoundTrip(62500, 62500, func() { first = k.Now() })  // 1 s serialization
	u.RoundTrip(62500, 62500, func() { second = k.Now() }) // queues behind it
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if first < time.Second || first > 1100*time.Millisecond {
		t.Errorf("first transfer at %v, want ~1.06s", first)
	}
	if second < 2*time.Second || second > 2200*time.Millisecond {
		t.Errorf("second transfer at %v, want ~2.06s (queued behind first)", second)
	}

	// Saturate past MaxQueueDelay: the tail must drop, not buffer.
	for i := 0; i < 10; i++ {
		u.RoundTrip(62500, 62500, nil)
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	_, _, _, dropped := u.Counters()
	if dropped == 0 {
		t.Error("no tail drops despite queue past MaxQueueDelay")
	}
}

// Regression (satellite a): a message in flight across a transient
// outage must die even when the outage heals before the delivery time —
// a flip-flop fault plan used to let it deliver as if nothing happened.
func TestUplinkFlipFlopOutage(t *testing.T) {
	k := sim.NewKernel(1)
	p := DefaultUplinkParams()
	p.LossProb = 0
	p.JitterFrac = 0
	u, err := NewUplink(k, p)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	u.RoundTrip(1000, 1000, func() { ran = true }) // delivers ~60.8 ms out
	// Flip-flop well inside the flight window.
	k.After(10*time.Millisecond, func() { u.SetAvailable(false) })
	k.After(20*time.Millisecond, func() { u.SetAvailable(true) })
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("delivery survived a mid-flight outage that healed before arrival")
	}
	sent, delivered, lost, dropped := u.Counters()
	if sent != 1 || delivered != 0 || lost != 0 || dropped != 1 {
		t.Errorf("counters = %d/%d/%d/%d, want 1/0/0/1", sent, delivered, lost, dropped)
	}

	// Control: a message launched after the heal delivers normally.
	ran = false
	u.RoundTrip(1000, 1000, func() { ran = true })
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("post-heal message did not deliver")
	}
}
