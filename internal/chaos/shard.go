package chaos

import (
	"fmt"
	"hash/fnv"

	"vcloud/internal/geo"
	"vcloud/internal/shardworld"
	"vcloud/internal/sim"
)

// Shard-soak draw tags: one per independent storm parameter, so every
// episode's shape is a pure function of (seed, episode, tag).
const (
	drawFleet   = 0x11
	drawTicks   = 0x23
	drawChurn   = 0x37
	drawOutageX = 0x41
	drawOutageY = 0x43
	drawOutageW = 0x47
	drawOutageT = 0x53
)

// ShardSoakConfig tunes the sharded-kernel storm soak: a sequence of
// randomized-but-seeded storm episodes — fleet churn plus a roaming
// regional beacon outage — each run on the geo-sharded kernel AND on
// the serial kernel, with bit-for-bit output equality as the armed
// invariant. Zero values take defaults.
type ShardSoakConfig struct {
	// Seed drives every storm draw; equal seeds replay equal soaks.
	Seed int64
	// Shards is the sharded arm's shard count. Default 4.
	Shards int
	// Episodes is how many storm episodes to run. Default 4.
	Episodes int
	// Vehicles is the base fleet size; episodes vary it upward by up to
	// 50%. Default 96.
	Vehicles int
	// Ticks is the base episode length; episodes vary it upward by up to
	// 50%. Default 48.
	Ticks int
}

// ShardSoakReport is the storm soak's outcome. Violations being empty is
// the pass criterion.
type ShardSoakReport struct {
	Episodes int
	Shards   int
	// Events counts kernel events processed by the sharded arms;
	// CrossEvents and Handoffs count shard-border traffic, so a soak
	// that never exercised the borders is visible as zero here.
	Events      uint64
	CrossEvents uint64
	Handoffs    int64
	Delivered   uint64
	// Checksum digests every episode's (already shard-invariant) model
	// checksum in order; same seed reproduces it bit-for-bit.
	Checksum uint64
	// Violations holds every episode whose sharded output diverged from
	// serial, or whose run tripped an internal conservation invariant.
	Violations []string
}

func (c *ShardSoakConfig) defaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Episodes == 0 {
		c.Episodes = 4
	}
	if c.Vehicles == 0 {
		c.Vehicles = 96
	}
	if c.Ticks == 0 {
		c.Ticks = 48
	}
}

// Validate checks the config with its defaults applied: a sharded arm
// to compare, storms big enough to cross shard borders, and a shard grid
// the storm world can hold.
func (c ShardSoakConfig) Validate() error {
	c.defaults()
	if c.Shards < 2 {
		return fmt.Errorf("chaos: shard soak needs at least 2 shards, got %d", c.Shards)
	}
	if c.Episodes < 1 || c.Vehicles < 8 || c.Ticks < 8 {
		return fmt.Errorf("chaos: shard soak config too small: episodes=%d vehicles=%d ticks=%d",
			c.Episodes, c.Vehicles, c.Ticks)
	}
	if err := shardworld.DefaultConfig(c.Seed, c.Shards).Validate(); err != nil {
		return fmt.Errorf("chaos: shard soak: %w", err)
	}
	return nil
}

// RunShardSoak runs the sharded-kernel storm soak: each episode draws a
// storm shape (fleet size, churn fraction, outage region and window)
// from named hash streams, runs the shardworld scenario at cfg.Shards
// shards and again at one shard, and records a violation unless the two
// model outputs are byte-for-byte identical. shardworld.Run's built-in
// conservation invariants (fleet vs churn schedule, applied == delivered)
// arm on every run; an invariant error is recorded, not fatal, so one
// bad episode cannot mask later ones.
func RunShardSoak(cfg ShardSoakConfig) (*ShardSoakReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()

	useed := uint64(sim.SubSeed(cfg.Seed, "chaos/shardsoak"))
	rep := &ShardSoakReport{Episodes: cfg.Episodes, Shards: cfg.Shards}
	sum := fnv.New64a()
	for ep := 0; ep < cfg.Episodes; ep++ {
		e := uint64(ep)
		wcfg := shardworld.DefaultConfig(sim.SubSeed(cfg.Seed, fmt.Sprintf("chaos/shardsoak/%d", ep)), cfg.Shards)
		wcfg.Vehicles = cfg.Vehicles + int(sim.HashUnit(useed, drawFleet, e)*float64(cfg.Vehicles)/2)
		wcfg.Ticks = cfg.Ticks + int(sim.HashUnit(useed, drawTicks, e)*float64(cfg.Ticks)/2)
		wcfg.SampleEvery = wcfg.Ticks / 4
		wcfg.ChurnFrac = 0.1 + 0.3*sim.HashUnit(useed, drawChurn, e)

		// A roaming outage: a square covering ~1/3 of the world span,
		// placed anywhere, silencing beacons for the middle of the run.
		w := wcfg.WorldSize
		side := w / 3
		ox := sim.HashUnit(useed, drawOutageX, e) * (w - side)
		oy := sim.HashUnit(useed, drawOutageY, e) * (w - side)
		from := 1 + int(sim.HashUnit(useed, drawOutageT, e)*float64(wcfg.Ticks)/3)
		span := wcfg.Ticks/4 + int(sim.HashUnit(useed, drawOutageW, e)*float64(wcfg.Ticks)/4)
		wcfg.Outage = &shardworld.Outage{
			Rect:     geo.NewRect(geo.Point{X: ox, Y: oy}, geo.Point{X: ox + side, Y: oy + side}),
			FromTick: from,
			ToTick:   from + span,
		}

		sharded, err := shardworld.Run(wcfg)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("episode %d: sharded run: %v", ep, err))
			continue
		}
		serialCfg := wcfg
		serialCfg.Shards = 1
		serial, err := shardworld.Run(serialCfg)
		if err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("episode %d: serial run: %v", ep, err))
			continue
		}
		if sharded.Comparable() != serial.Comparable() {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"episode %d: sharded output diverged from serial (checksum %016x != %016x)",
				ep, sharded.Checksum, serial.Checksum))
		}
		rep.Events += sharded.Processed
		rep.CrossEvents += sharded.CrossEvents
		rep.Handoffs += sharded.Handoffs
		rep.Delivered += sharded.Radio.Delivered
		fmt.Fprintf(sum, "%d:%016x\n", ep, sharded.Checksum)
	}
	rep.Checksum = sum.Sum64()
	return rep, nil
}
