package radio

import "vcloud/internal/sim"

// Hash draw domains for the shard channel; distinct tags decorrelate the
// fade and collision draws for the same (tick, from, to) reception.
const (
	drawFade    uint64 = 0x2f
	drawCollide uint64 = 0x8b
)

// ShardChannel is the deterministic beacon channel of the geo-sharded
// world. Where Medium draws from a kernel RNG stream — whose draw order
// depends on global event interleaving — ShardChannel decides every
// reception with counter hashes keyed by (seed, tick, sender, receiver),
// so the outcome of each transmission is a pure function of the model.
// Shards can therefore evaluate receptions for the receivers they own, in
// any order and on any core, and produce bit-for-bit the outcome a serial
// run would.
//
// Contention is judged by Params.CollisionProb, as on the Medium, from
// the busy share of the air near the sender, which the caller derives
// from what the halo-complete shard indexes reproduce exactly; each
// reception is evaluated by exactly one shard (the sender's owner), so
// the integer counters sum across shards to the serial totals.
type ShardChannel struct {
	seed   uint64
	params Params
	stats  Stats
}

// NewShardChannel creates a channel with the given hash seed.
func NewShardChannel(seed uint64, params Params) (*ShardChannel, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return &ShardChannel{seed: seed, params: params}, nil
}

// NoteSent accounts one transmitted beacon of size bytes. The sender's
// owner shard calls this exactly once per beacon.
func (c *ShardChannel) NoteSent(size int) {
	c.stats.Sent++
	c.stats.BytesOnAir += uint64(size)
}

// Beacon is one transmission's share of the reception verdict: everything
// that depends on (tick, sender, busy) but not on the receiver, computed
// once so each candidate receiver costs one hash round per draw.
type Beacon struct {
	c *ShardChannel
	// fade and collide are sim.Hash(seed, domain, tick, from): the chains
	// behind the two draws, short of the final round that folds in `to`.
	fade, collide uint64
	pCollide      float64
}

// Beacon prepares the verdicts for the beacon transmitted at tick by from,
// whose air was busy for the share busy of the load window.
func (c *ShardChannel) Beacon(tick uint64, from NodeID, busy float64) Beacon {
	uf := uint64(uint32(from))
	return Beacon{
		c:        c,
		fade:     sim.Hash(c.seed, drawFade, tick, uf),
		collide:  sim.Hash(c.seed, drawCollide, tick, uf),
		pCollide: c.params.CollisionProb(busy),
	}
}

// Reaches decides whether the beacon reaches to, whose distance from the
// sender has reception probability pRecv = Params.ReceptionProb(dist), and
// updates the channel's Delivered/LostRange/LostLoad counters. The caller
// computes pRecv, so the two directions of one pair share it. The verdict
// is sim.HashUnit(seed, domain, tick, from, to) against the fade and
// collision probabilities, so it reads nothing but the beacon, its
// arguments and the channel seed: any shard computes the same verdict for
// the same reception. The fade draw lies in [0, 1) and cannot reach a
// reception probability of 1, so it is skipped inside RangeReliable.
//
//vcloudlint:hotpath one verdict per candidate reception per tick in the sharded world
func (b Beacon) Reaches(to NodeID, pRecv float64) bool {
	ut := uint64(uint32(to))
	c := b.c
	if pRecv < 1 && hashUnit(b.fade^ut) >= pRecv {
		c.stats.LostRange++
		return false
	}
	if hashUnit(b.collide^ut) < b.pCollide {
		c.stats.LostLoad++
		return false
	}
	c.stats.Delivered++
	return true
}

// hashUnit finishes a sim.HashUnit chain: one more mix round over the
// folded-in last value, mapped onto [0, 1) with 53 bits of precision.
func hashUnit(x uint64) float64 { return float64(sim.Mix64(x)>>11) / (1 << 53) }

// Stats returns a copy of the channel counters.
func (c *ShardChannel) Stats() Stats { return c.stats }

// Add merges per-shard channel counters into fleet totals. Integer sums
// commute, so the merged result is independent of shard count and order.
func (s Stats) Add(o Stats) Stats {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.LostRange += o.LostRange
	s.LostLoad += o.LostLoad
	s.BytesOnAir += o.BytesOnAir
	return s
}
