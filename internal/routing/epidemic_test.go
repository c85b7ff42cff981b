package routing_test

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/routing"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// contactRig is one epidemic router on a silent static node, and a
// lossless radio on which visitors come and go, each beaconing every
// 100 ms from beside it while present.
type contactRig struct {
	k     *sim.Kernel
	m     *radio.Medium
	stats routing.Stats
	e     *routing.Epidemic
}

func newContactRig(t *testing.T) *contactRig {
	t.Helper()
	k := sim.NewKernel(1)
	p := radio.DefaultParams()
	p.RangeReliable = p.RangeMax
	p.CollisionFactor = 0
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 100, Y: 100}), p)
	if err != nil {
		t.Fatal(err)
	}
	r := &contactRig{k: k, m: m}
	m.UpdatePosition(1, geo.Point{})
	node, err := vnet.NewNode(k, m, 1, vnet.Config{}, func() (geo.Point, float64, float64) { return geo.Point{}, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	if r.e, err = routing.NewEpidemic(node, &r.stats, nil); err != nil {
		t.Fatal(err)
	}
	return r
}

// visit puts a beaconing node at addr from arrive until leave.
func (r *contactRig) visit(t *testing.T, addr vnet.Addr, arrive, leave sim.Time) {
	r.k.At(arrive, func() {
		pos := geo.Point{X: 50, Y: float64(addr % 50)}
		r.m.UpdatePosition(addr, pos)
		n, err := vnet.NewNode(r.k, r.m, addr, vnet.Config{BeaconPeriod: 100 * time.Millisecond},
			func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			t.Error(err)
			return
		}
		if err := n.Start(); err != nil {
			t.Error(err)
		}
		r.k.At(leave, n.Stop)
	})
}

// sampleAt records fn() half a scan period after every whole second up to
// horizon, when each scan's re-offer has gone on air.
func (r *contactRig) sampleAt(horizon int, fn func() int) []int {
	out := make([]int, horizon)
	for s := range horizon {
		r.k.At(sim.Time(s)*time.Second+500*time.Millisecond, func() { out[s] = fn() })
	}
	return out
}

// TestEpidemicOneReofferPerEncounter: a visitor beaconing ten times a
// second is one encounter, re-offered once at the first scan after it is
// heard and never again while it stays; two visitors met within one scan
// period share one re-offer; a visitor back after more than contactWindow
// away is a new encounter.
func TestEpidemicOneReofferPerEncounter(t *testing.T) {
	r := newContactRig(t)
	if err := r.e.Send(999, 300, nil); err != nil { // buffered, sent once
		t.Fatal(err)
	}
	r.visit(t, 2, 2300*time.Millisecond, 8*time.Second)
	r.visit(t, 3, 12200*time.Millisecond, 15*time.Second)
	r.visit(t, 4, 12500*time.Millisecond, 15*time.Second)
	r.visit(t, 2, 19200*time.Millisecond, 25*time.Second)
	got := r.sampleAt(25, func() int { return int(r.stats.Transmissions.Value()) })
	if err := r.k.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	for s, tx := range got {
		want := 1
		switch {
		case s >= 20:
			want = 4
		case s >= 13:
			want = 3
		case s >= 3:
			want = 2
		}
		if tx != want {
			t.Fatalf("transmissions at %d.5 s: %v, want %d (all: %v)", s, tx, want, got)
		}
	}
}

// TestEpidemicContactsBounded: a hundred visitors pass one after another,
// two seconds each; the router remembers only those heard within
// contactWindow, not every vehicle it has ever met.
func TestEpidemicContactsBounded(t *testing.T) {
	r := newContactRig(t)
	const visitors = 100
	for i := range visitors {
		at := sim.Time(2*i) * time.Second
		r.visit(t, vnet.Addr(100+i), at, at+2*time.Second)
	}
	got := r.sampleAt(2*visitors, r.e.ContactsLen)
	if err := r.k.Run(2 * visitors * time.Second); err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, n := range got {
		peak = max(peak, n)
	}
	// Ten seconds of two-second visits, and the one heard at the window's
	// edge.
	if peak == 0 || peak > 7 {
		t.Errorf("contacts peaked at %d over %d visitors, want 1..7 (samples %v)", peak, visitors, got)
	}
}

// TestEpidemicStopSilences: once stopped, a router neither transmits nor
// scans — a visitor arriving afterwards with the buffer still full draws
// no re-offer and leaves no contact behind.
func TestEpidemicStopSilences(t *testing.T) {
	r := newContactRig(t)
	if err := r.e.Send(999, 300, nil); err != nil {
		t.Fatal(err)
	}
	r.visit(t, 2, 500*time.Millisecond, 30*time.Second)
	r.visit(t, 3, 5*time.Second, 30*time.Second)
	var contacts int
	r.k.At(2500*time.Millisecond, func() {
		contacts = r.e.ContactsLen()
		r.e.Stop()
	})
	if err := r.k.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if contacts != 1 || r.e.ContactsLen() != contacts {
		t.Errorf("contacts %d at Stop, %d after; want 1 and unchanged", contacts, r.e.ContactsLen())
	}
	if tx := r.stats.Transmissions.Value(); tx != 2 {
		t.Errorf("%d transmissions; want 2 (the send and the first visitor's re-offer, both before Stop)", tx)
	}
	if err := r.e.Send(2, 300, nil); err == nil {
		t.Error("a stopped router accepted a send")
	}
}
