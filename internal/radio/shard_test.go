package radio

import (
	"math"
	"testing"

	"vcloud/internal/sim"
)

func newTestChannel(t *testing.T, seed uint64) *ShardChannel {
	t.Helper()
	c, err := NewShardChannel(seed, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reaches is one whole verdict through the per-beacon API.
func reaches(c *ShardChannel, tick uint64, from, to NodeID, dist, busy float64) bool {
	return c.Beacon(tick, from, busy).Reaches(to, c.params.ReceptionProb(dist))
}

// receiveModel is ShardChannel.Receive as it stood before Beacon/Reaches
// replaced it, kept verbatim as the reference: two full five-round hash
// chains per candidate, the fade draw always made.
func receiveModel(c *ShardChannel, tick uint64, from, to NodeID, dist, busy float64) bool {
	uf, ut := uint64(uint32(from)), uint64(uint32(to))
	pRecv := c.params.ReceptionProb(dist)
	if sim.HashUnit(c.seed, drawFade, tick, uf, ut) >= pRecv {
		c.stats.LostRange++
		return false
	}
	if sim.HashUnit(c.seed, drawCollide, tick, uf, ut) < c.params.CollisionProb(busy) {
		c.stats.LostLoad++
		return false
	}
	c.stats.Delivered++
	return true
}

// TestBeaconMatchesReceiveModel holds Beacon/Reaches to the old
// per-candidate Receive: same verdict for every reception and the same
// three counters, across both hard distance regimes, the fade zone and
// the whole load range, with one beacon reused over many receivers the
// way beaconPhase uses it.
func TestBeaconMatchesReceiveModel(t *testing.T) {
	for _, seed := range []uint64{0, 1, 77, 1 << 63} {
		got, want := newTestChannel(t, seed), newTestChannel(t, seed)
		p := got.Params()
		fade := p.RangeMax - p.RangeReliable
		dists := []float64{0, p.RangeReliable / 2, p.RangeReliable,
			p.RangeReliable + fade/1000, p.RangeReliable + fade/4, p.RangeReliable + fade/2, p.RangeMax - fade/1000,
			p.RangeMax, p.RangeMax + 1}
		froms := []NodeID{0, 1, 4999, 1 << 20, 1<<20 + 7, -1}
		for tick := uint64(0); tick < 40; tick++ {
			for _, busy := range []float64{0, 0.01, 0.1, 0.5, 0.95, 3} {
				for _, from := range froms {
					b := got.Beacon(tick*7919, from, busy)
					for i := 0; i < 12; i++ {
						to := NodeID(i*37 + int(tick))
						if i%4 == 3 {
							to += 1 << 20
						}
						dist := dists[(i+int(tick))%len(dists)]
						g := b.Reaches(to, p.ReceptionProb(dist))
						w := receiveModel(want, tick*7919, from, to, dist, busy)
						if g != w {
							t.Fatalf("seed %d tick %d from %d to %d dist %v busy %v: Reaches = %v, Receive model = %v",
								seed, tick*7919, from, to, dist, busy, g, w)
						}
					}
				}
			}
		}
		gs, ws := got.Stats(), want.Stats()
		if gs != ws {
			t.Fatalf("seed %d: counters diverged: %+v, model %+v", seed, gs, ws)
		}
		if gs.Delivered == 0 || gs.LostRange == 0 || gs.LostLoad == 0 {
			t.Fatalf("seed %d: an outcome never occurred, the comparison proves less than it claims: %+v", seed, gs)
		}
	}
}

// TestShardChannelPure checks the reception verdict is a pure function of
// (seed, tick, from, to, dist, busy): two independent channel
// instances agree on every decision.
func TestShardChannelPure(t *testing.T) {
	a := newTestChannel(t, 77)
	b := newTestChannel(t, 77)
	for tick := uint64(0); tick < 300; tick++ {
		from, to := NodeID(tick%17), NodeID(tick%23+17)
		dist := float64(tick%350) + 0.5
		busy := float64(tick%40) / 40
		if reaches(a, tick, from, to, dist, busy) != reaches(b, tick, from, to, dist, busy) {
			t.Fatalf("verdict diverged at tick %d", tick)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	c := newTestChannel(t, 78)
	diff := 0
	for tick := uint64(0); tick < 300; tick++ {
		dist := 200.0
		if reaches(a, tick, 1, 2, dist, 0.25) != reaches(c, tick, 1, 2, dist, 0.25) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not affect any verdict")
	}
}

// TestShardChannelDistanceCutoff checks the two hard distance regimes:
// certain inside RangeReliable at zero load, impossible beyond RangeMax.
func TestShardChannelDistanceCutoff(t *testing.T) {
	c := newTestChannel(t, 5)
	p := c.Params()
	for tick := uint64(0); tick < 200; tick++ {
		if !reaches(c, tick, 1, 2, p.RangeReliable-1, 0) {
			t.Fatalf("reliable-range beacon lost at tick %d under zero load", tick)
		}
		if reaches(c, tick, 1, 2, p.RangeMax+1, 0) {
			t.Fatalf("out-of-range beacon delivered at tick %d", tick)
		}
	}
	s := c.Stats()
	if s.Delivered != 200 || s.LostRange != 200 || s.LostLoad != 0 {
		t.Fatalf("stats = %+v, want 200 delivered / 200 range-lost", s)
	}
}

// TestShardChannelLoadLoss checks the shared verdict, min(MaxCollisionLoss,
// CollisionFactor × min(busy, 1)), and that the channel loses beacons to
// load at that rate: none on an idle air, more as the air near the sender
// gets busier, and never more than the cap once it is saturated.
func TestShardChannelLoadLoss(t *testing.T) {
	p := DefaultParams()
	p.CollisionFactor = 0.5
	for _, tc := range []struct{ busy, want float64 }{
		{0, 0}, {0.4, 0.2}, {1, 0.5}, {7, 0.5},
	} {
		if got := p.CollisionProb(tc.busy); got != tc.want {
			t.Errorf("CollisionFactor 0.5: CollisionProb(%v) = %v, want %v", tc.busy, got, tc.want)
		}
	}
	p.CollisionFactor = 4
	if got := p.CollisionProb(0.5); got != p.MaxCollisionLoss {
		t.Errorf("CollisionFactor 4: CollisionProb(0.5) = %v, want the cap %v", got, p.MaxCollisionLoss)
	}
	const n = 4000
	lossAt := func(busy float64) float64 {
		ch := newTestChannel(t, 6)
		for tick := uint64(0); tick < n; tick++ {
			reaches(ch, tick, 1, 2, 50, busy)
		}
		return float64(ch.Stats().LostLoad) / n
	}
	c := newTestChannel(t, 6)
	prev := -1.0
	for _, busy := range []float64{0, 0.05, 0.3, 0.7, 1, 5} {
		got, want := lossAt(busy), c.Params().CollisionProb(busy)
		if math.Abs(got-want) > 0.03 || got < prev || got > c.Params().MaxCollisionLoss {
			t.Fatalf("busy %v: load-loss share %v, verdict %v (previous share %v, cap %v)", busy, got, want, prev, c.Params().MaxCollisionLoss)
		}
		prev = got
	}
}

// TestShardStatsAdd checks per-shard counter merging.
func TestShardStatsAdd(t *testing.T) {
	a := Stats{Sent: 1, Delivered: 2, LostRange: 3, LostLoad: 4, BytesOnAir: 5}
	b := Stats{Sent: 10, Delivered: 20, LostRange: 30, LostLoad: 40, BytesOnAir: 50}
	want := Stats{Sent: 11, Delivered: 22, LostRange: 33, LostLoad: 44, BytesOnAir: 55}
	if got := a.Add(b); got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if got := b.Add(a); got != want {
		t.Fatalf("Add not commutative: %+v", got)
	}
}
