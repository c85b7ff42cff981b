package radio

import (
	"testing"

	"vcloud/internal/sim"
)

func newTestChannel(t *testing.T, seed uint64) *ShardChannel {
	t.Helper()
	c, err := NewShardChannel(seed, DefaultParams(), 20)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reaches is one whole verdict through the per-beacon API.
func reaches(c *ShardChannel, tick uint64, from, to NodeID, dist float64, density int) bool {
	return c.Beacon(tick, from, density).Reaches(to, dist)
}

// receiveModel is ShardChannel.Receive as it stood before Beacon/Reaches
// replaced it, kept verbatim as the reference: two full five-round hash
// chains per candidate, the fade draw always made.
func receiveModel(c *ShardChannel, tick uint64, from, to NodeID, dist float64, density int) bool {
	uf, ut := uint64(uint32(from)), uint64(uint32(to))
	pRecv := c.params.ReceptionProb(dist)
	if sim.HashUnit(c.seed, drawFade, tick, uf, ut) >= pRecv {
		c.stats.LostRange++
		return false
	}
	if sim.HashUnit(c.seed, drawCollide, tick, uf, ut) < c.CollisionProb(density) {
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
			for _, density := range []int{0, 1, 5, 20, 50, 200} {
				for _, from := range froms {
					b := got.Beacon(tick*7919, from, density)
					for i := 0; i < 12; i++ {
						to := NodeID(i*37 + int(tick))
						if i%4 == 3 {
							to += 1 << 20
						}
						dist := dists[(i+int(tick))%len(dists)]
						g := b.Reaches(to, dist)
						w := receiveModel(want, tick*7919, from, to, dist, density)
						if g != w {
							t.Fatalf("seed %d tick %d from %d to %d dist %v density %d: Reaches = %v, Receive model = %v",
								seed, tick*7919, from, to, dist, density, g, w)
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
// (seed, tick, from, to, dist, density): two independent channel
// instances agree on every decision.
func TestShardChannelPure(t *testing.T) {
	a := newTestChannel(t, 77)
	b := newTestChannel(t, 77)
	for tick := uint64(0); tick < 300; tick++ {
		from, to := NodeID(tick%17), NodeID(tick%23+17)
		dist := float64(tick%350) + 0.5
		if reaches(a, tick, from, to, dist, int(tick%40)) != reaches(b, tick, from, to, dist, int(tick%40)) {
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
		if reaches(a, tick, 1, 2, dist, 10) != reaches(c, tick, 1, 2, dist, 10) {
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

// TestShardChannelLoadLoss checks collision loss grows with sender
// density and stays under the configured cap.
func TestShardChannelLoadLoss(t *testing.T) {
	c := newTestChannel(t, 6)
	if c.CollisionProb(0) != 0 {
		t.Fatalf("CollisionProb(0) = %v", c.CollisionProb(0))
	}
	if got, cap := c.CollisionProb(20), c.Params().MaxCollisionLoss/2; got != cap {
		t.Fatalf("CollisionProb(densityHalf) = %v, want %v", got, cap)
	}
	lossAt := func(density int) int {
		ch := newTestChannel(t, 6)
		for tick := uint64(0); tick < 2000; tick++ {
			reaches(ch, tick, 1, 2, 50, density)
		}
		return int(ch.Stats().LostLoad)
	}
	low, high := lossAt(2), lossAt(200)
	if low >= high {
		t.Fatalf("collision loss not increasing with density: %d at d=2 vs %d at d=200", low, high)
	}
	if frac := float64(high) / 2000; frac > c.Params().MaxCollisionLoss {
		t.Fatalf("loss fraction %v exceeds cap %v", frac, c.Params().MaxCollisionLoss)
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
