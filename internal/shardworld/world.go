// Package shardworld composes the geo-sharded simulation: a fleet of
// hash-driven vehicles (internal/mobility.ShardVehicle) beaconing over the
// deterministic counter-hash channel (internal/radio.ShardChannel), run on
// one sim.ShardedKernel with a shard-local spatial index per shard
// (internal/geo.ShardedIndex) and conservative lookahead synchronization.
//
// The world is built so that its sampled output is bit-for-bit identical
// at ANY shard count, by construction rather than by luck:
//
//   - Every random draw (spawn, turn, speed, reception) is a counter hash
//     keyed by (seed, entity, tick) — never a shared RNG stream — so no
//     draw order exists to perturb.
//   - Each tick T is split into four phases at lookahead L = T/4: move@t,
//     ghost/handoff apply@t+L, beacon@t+2L, deliver@t+3L. Every
//     cross-shard event travels exactly L ahead, meeting the conservative
//     contract with zero slack.
//   - Ghosts are pushed fresh every tick (positions as of move@t) with a
//     halo of radio range plus one step, so a border query over
//     locals+ghosts returns exactly what one global index would.
//   - Sampled rows contain only integer counters whose per-shard
//     subtotals sum exactly (no float accumulation order), taken at
//     t+3L+L/2 when every delivery of the tick has been applied.
//
// Handoff counts and cross-event totals are inherently shard-dependent
// and are reported as sharding telemetry, never in the comparable output.
package shardworld

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

// Fixed scenario parameters.
const (
	speedMin, speedMax = 5.0, 30.0 // vehicle speed range, m/s
	// densityHalf is the sender neighbor count at which collision loss
	// reaches half its cap (see radio.ShardChannel).
	densityHalf = 20.0
	beaconBytes = 300
)

// Hash draw domains for the churn schedule.
const (
	drawBirthGate uint64 = 0x11
	drawBirthTick uint64 = 0x13
	drawDeathGate uint64 = 0x17
	drawDeathTick uint64 = 0x19
)

// Outage suppresses all beacons transmitted from inside Rect during ticks
// [FromTick, ToTick). The decision reads only the sender's position and
// the tick, so it is shard-invariant.
type Outage struct {
	Rect     geo.Rect
	FromTick int
	ToTick   int
}

// Config parameterizes a sharded world run.
type Config struct {
	Seed   int64
	Shards int
	// Vehicles is the id universe size; with ChurnFrac > 0 some ids
	// arrive late or depart early.
	Vehicles int
	Ticks    int
	// TickEvery is the tick period T; the lookahead is T/4. It is rounded
	// down to a multiple of 4ns.
	TickEvery sim.Time
	// WorldSize is the square world edge length in meters.
	WorldSize float64
	Radio     radio.Params
	// SampleEvery emits a fleet sample row every that many ticks.
	SampleEvery int
	// ChurnFrac is the fraction of ids gated into late arrival and the
	// fraction gated into early departure.
	ChurnFrac float64
	Outage    *Outage
}

// DefaultConfig returns a medium-sized scenario: a 3 km² world with 160
// vehicles beaconing every 200 ms tick.
func DefaultConfig(seed int64, shards int) Config {
	return Config{
		Seed:        seed,
		Shards:      shards,
		Vehicles:    160,
		Ticks:       96,
		TickEvery:   200 * time.Millisecond,
		WorldSize:   3000,
		Radio:       radio.DefaultParams(),
		SampleEvery: 16,
	}
}

func (cfg *Config) normalize() error {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Vehicles < 1 {
		return fmt.Errorf("shardworld: need at least one vehicle, got %d", cfg.Vehicles)
	}
	if cfg.Ticks < 2 {
		return fmt.Errorf("shardworld: need at least two ticks, got %d", cfg.Ticks)
	}
	if cfg.TickEvery < 4 {
		return fmt.Errorf("shardworld: tick period too small: %v", cfg.TickEvery)
	}
	cfg.TickEvery -= cfg.TickEvery % 4
	if cfg.WorldSize <= 0 {
		return fmt.Errorf("shardworld: world size must be positive, got %v", cfg.WorldSize)
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.ChurnFrac < 0 || cfg.ChurnFrac > 1 {
		return fmt.Errorf("shardworld: churn fraction must be in [0, 1], got %v", cfg.ChurnFrac)
	}
	return nil
}

// SampleRow is one fleet-wide sample: integer counters only, so per-shard
// subtotals sum exactly to the serial values. Beacons through Suppressed
// are cumulative since tick zero.
type SampleRow struct {
	Tick       int
	Active     int64
	Beacons    uint64
	Delivered  uint64
	LostRange  uint64
	LostLoad   uint64
	Applied    int64 // deliveries applied at receivers
	Suppressed uint64
	OdoMM      int64 // fleet odometer incl. departed vehicles
}

func (r SampleRow) add(o SampleRow) SampleRow {
	r.Active += o.Active
	r.Beacons += o.Beacons
	r.Delivered += o.Delivered
	r.LostRange += o.LostRange
	r.LostLoad += o.LostLoad
	r.Applied += o.Applied
	r.Suppressed += o.Suppressed
	r.OdoMM += o.OdoMM
	return r
}

// Result is the outcome of one run. Samples, Radio and Checksum are
// shard-invariant model output; the remaining fields are sharding and
// performance telemetry.
type Result struct {
	Seed     int64
	Shards   int
	Vehicles int
	Ticks    int

	Samples  []SampleRow
	Radio    radio.Stats
	Checksum uint64

	Handoffs    int64
	CrossEvents uint64
	Processed   uint64
	Windows     uint64
	Wall        time.Duration
	BusyWall    time.Duration
	CritPath    time.Duration
}

// Comparable renders the shard-invariant model output: identical strings
// at any shard count is the determinism contract, enforced by
// TestShardedMatchesSerial and experiment E17.
func (r *Result) Comparable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shardworld seed=%d vehicles=%d ticks=%d\n", r.Seed, r.Vehicles, r.Ticks)
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "t=%04d active=%d beacons=%d delivered=%d applied=%d lostRange=%d lostLoad=%d suppressed=%d odoMM=%d\n",
			s.Tick, s.Active, s.Beacons, s.Delivered, s.Applied, s.LostRange, s.LostLoad, s.Suppressed, s.OdoMM)
	}
	fmt.Fprintf(&b, "radio sent=%d delivered=%d lostRange=%d lostLoad=%d bytes=%d\n",
		r.Radio.Sent, r.Radio.Delivered, r.Radio.LostRange, r.Radio.LostLoad, r.Radio.BytesOnAir)
	return b.String()
}

// ChurnSchedule returns the tick each vehicle id becomes active and the
// tick it departs (math.MaxInt32 for never), as pure functions of the
// config. Exposed so invariant checks can recompute the expected fleet.
func ChurnSchedule(cfg Config) (birth, death []int32, err error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	sched := churnSchedule(&cfg)
	return sched[:cfg.Vehicles], sched[cfg.Vehicles:], nil
}

func churnSchedule(cfg *Config) []int32 {
	seed := uint64(sim.SubSeed(cfg.Seed, "shardworld/churn"))
	sched := make([]int32, 2*cfg.Vehicles)
	birth, death := sched[:cfg.Vehicles], sched[cfg.Vehicles:]
	half := cfg.Ticks / 2
	for i := range birth {
		u := uint64(i)
		death[i] = math.MaxInt32
		if cfg.ChurnFrac <= 0 {
			continue
		}
		// Births land in [1, half); deaths in [half, ticks), so every
		// churned id still lives a contiguous, non-empty interval.
		if sim.HashUnit(seed, drawBirthGate, u) < cfg.ChurnFrac {
			birth[i] = 1 + int32(sim.HashUnit(seed, drawBirthTick, u)*float64(half-1))
		}
		if sim.HashUnit(seed, drawDeathGate, u) < cfg.ChurnFrac {
			death[i] = int32(half) + int32(sim.HashUnit(seed, drawDeathTick, u)*float64(cfg.Ticks-half))
		}
	}
	return sched
}

// world wires the shards together for one run.
type world struct {
	cfg    Config
	bounds geo.Rect
	smap   *geo.ShardMap
	sk     *sim.ShardedKernel
	shards []*wshard
	// birth/death are read-only during the run (shared across workers).
	birth, death []int32
	mobSeed      uint64
	halo         float64
	dt           float64 // tick period in seconds
	lookahead    sim.Time
}

// wshard is one shard's model state, owned by that shard's worker during
// windows and touched by others only through cross-shard events.
type wshard struct {
	w       *world
	idx     int
	k       *sim.Kernel
	index   *geo.ShardedIndex
	channel *radio.ShardChannel
	// locals is the shard's fleet in ascending id order — the order every
	// per-tick walk follows. It changes only at arrival and handoff-in
	// (insertLocal) and at death and handoff-out (movePhase's compaction).
	locals []mobility.ShardVehicle
	// arrivals maps tick -> ids spawning on this shard, precomputed at
	// setup from the churn schedule and the pure spawn position.
	arrivals map[int][]int32

	retiredOdo int64
	applied    int64
	hops       int64
	suppressed uint64
	samples    []SampleRow

	near []int
	nids []int32
	npos []geo.Point
}

type ghostMsg struct {
	s   *wshard
	id  int32
	pos geo.Point
}

func applyGhost(a any) {
	m := a.(ghostMsg)
	m.s.index.UpdateGhost(m.id, m.pos)
}

func applyDemote(a any) {
	m := a.(ghostMsg)
	m.s.index.RemoveLocal(m.id)
	m.s.index.UpdateGhost(m.id, m.pos)
}

type handoffMsg struct {
	s *wshard
	v mobility.ShardVehicle
}

func applyHandoff(a any) {
	m := a.(handoffMsg)
	m.s.insertLocal(m.v)
	m.s.index.UpdateLocal(m.v.ID, m.v.Pos)
}

func applyDelivery(a any) { a.(*wshard).applied++ }

func clearGhostsFn(a any) { a.(*wshard).index.ClearGhosts() }

// Run executes the scenario and returns its result.
func Run(cfg Config) (*Result, error) {
	w, err := run(cfg)
	if err != nil {
		return nil, err
	}
	return w.collect()
}

// run builds the world and drives it to the last tick.
func run(cfg Config) (*world, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	w := &world{
		cfg:       cfg,
		bounds:    geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: cfg.WorldSize, Y: cfg.WorldSize}),
		mobSeed:   uint64(sim.SubSeed(cfg.Seed, "shardworld/mob")),
		dt:        cfg.TickEvery.Seconds(),
		lookahead: cfg.TickEvery / 4,
	}
	w.halo = cfg.Radio.RangeMax + mobility.MaxStep(speedMax, w.dt)

	nx, ny := geo.FactorShards(cfg.Shards)
	var err error
	if w.smap, err = geo.NewShardMap(w.bounds, nx, ny); err != nil {
		return nil, err
	}
	if w.sk, err = sim.NewShardedKernel(cfg.Seed, cfg.Shards, w.lookahead); err != nil {
		return nil, err
	}
	defer w.sk.Close()

	radioSeed := uint64(sim.SubSeed(cfg.Seed, "shardworld/radio"))
	w.shards = make([]*wshard, cfg.Shards)
	for i := range w.shards {
		s := &wshard{
			w:        w,
			idx:      i,
			k:        w.sk.Shard(i),
			arrivals: make(map[int][]int32),
		}
		// Every shard's channel carries the same seed: reception verdicts
		// are pure in (tick, from, to), so the deciding shard is
		// irrelevant by construction.
		if s.channel, err = radio.NewShardChannel(radioSeed, cfg.Radio, densityHalf); err != nil {
			return nil, err
		}
		if s.index, err = geo.NewShardedIndex(w.bounds, cfg.Radio.RangeMax); err != nil {
			return nil, err
		}
		w.shards[i] = s
	}

	sched := churnSchedule(&cfg)
	w.birth, w.death = sched[:cfg.Vehicles], sched[cfg.Vehicles:]
	for i := 0; i < cfg.Vehicles; i++ {
		id := int32(i)
		v := mobility.SpawnShardVehicle(w.mobSeed, id, w.bounds, speedMin, speedMax)
		owner := w.shards[w.smap.ShardOf(v.Pos)]
		if b := w.birth[i]; b > 0 {
			owner.arrivals[int(b)] = append(owner.arrivals[int(b)], id)
		} else {
			owner.locals = append(owner.locals, v) // ids ascend with i
			owner.index.UpdateLocal(id, v.Pos)
		}
	}

	for _, s := range w.shards {
		s := s
		s.k.At(0, func() { s.movePhase(0) })
	}
	if err := w.sk.Run(sim.Time(cfg.Ticks) * cfg.TickEvery); err != nil {
		return nil, err
	}
	return w, nil
}

// insertLocal adds v to the id-ordered local table.
func (s *wshard) insertLocal(v mobility.ShardVehicle) {
	i, _ := slices.BinarySearchFunc(s.locals, v.ID, func(e mobility.ShardVehicle, id int32) int {
		return int(e.ID) - int(id)
	})
	s.locals = slices.Insert(s.locals, i, v)
}

// movePhase is phase one of tick: arrivals, departures, one Step per
// local vehicle, handoffs for border crossers, and fresh ghost pushes to
// every halo shard — all effective at t+L.
func (s *wshard) movePhase(tick int) {
	w := s.w
	cfg := &w.cfg
	t := sim.Time(tick) * cfg.TickEvery
	L := w.lookahead

	// Scheduled first so it carries the lowest sequence number at t+L:
	// last tick's ghosts vanish before this tick's pushes and handoffs
	// (scheduled below and at the barrier) apply.
	s.k.AtArg(t+L, clearGhostsFn, s)

	for _, id := range s.arrivals[tick] {
		s.insertLocal(mobility.SpawnShardVehicle(w.mobSeed, id, w.bounds, speedMin, speedMax))
	}

	// Vehicles that die or cross out this tick are dropped by compacting
	// the table in place as it is walked.
	keep := s.locals[:0]
	for i := range s.locals {
		v := &s.locals[i]
		id := v.ID
		if w.death[id] == int32(tick) {
			s.retiredOdo += v.OdoMM
			s.index.RemoveLocal(id)
			continue
		}
		v.Step(w.mobSeed, uint64(tick), w.bounds, w.dt, speedMin, speedMax)
		dst := w.smap.ShardOf(v.Pos)
		s.near = w.smap.ShardsNear(s.near[:0], v.Pos, w.halo)
		if dst != s.idx {
			// Border crossing: the struct copy travels one lookahead
			// ahead; this shard keeps the fresh position as a ghost so its
			// remaining locals still see the vehicle this tick.
			s.hops++
			cp := *v
			cp.Hops++
			s.k.AtArg(t+L, applyDemote, ghostMsg{s: s, id: id, pos: v.Pos})
			w.sk.Inject(s.idx, dst, t+L, applyHandoff, handoffMsg{s: w.shards[dst], v: cp})
		} else {
			s.index.UpdateLocal(id, v.Pos)
			keep = append(keep, *v)
		}
		for _, g := range s.near {
			if g != s.idx && g != dst {
				w.sk.Inject(s.idx, g, t+L, applyGhost, ghostMsg{s: w.shards[g], id: id, pos: v.Pos})
			}
		}
	}
	s.locals = keep

	s.k.At(t+2*L, func() { s.beaconPhase(tick) })
	if (tick+1)%cfg.SampleEvery == 0 || tick == cfg.Ticks-1 {
		s.k.At(t+3*L+L/2, func() { s.sample(tick) })
	}
	if tick+1 < cfg.Ticks {
		s.k.At(t+cfg.TickEvery, func() { s.movePhase(tick + 1) })
	}
}

// beaconPhase evaluates every local sender's broadcast against the
// halo-complete neighbor set. Each (sender, receiver) reception is judged
// exactly once fleet-wide — by the sender's owner — with a pure verdict,
// and successful deliveries land at t+3L on the receiver's owner.
func (s *wshard) beaconPhase(tick int) {
	w := s.w
	cfg := &w.cfg
	t := sim.Time(tick) * cfg.TickEvery
	L := w.lookahead
	out := cfg.Outage

	for i := range s.locals {
		v := &s.locals[i]
		id := v.ID
		if out != nil && tick >= out.FromTick && tick < out.ToTick && out.Rect.Contains(v.Pos) {
			s.suppressed++
			continue
		}
		s.channel.NoteSent(beaconBytes)
		s.nids, s.npos = s.index.WithinRangePos(s.nids[:0], s.npos[:0], v.Pos, cfg.Radio.RangeMax, id)
		b := s.channel.Beacon(uint64(tick), radio.NodeID(id), len(s.nids))
		for j, nid := range s.nids {
			if !b.Reaches(radio.NodeID(nid), v.Pos.Dist(s.npos[j])) {
				continue
			}
			if rs := w.smap.ShardOf(s.npos[j]); rs == s.idx {
				s.k.AtArg(t+3*L, applyDelivery, s)
			} else {
				w.sk.Inject(s.idx, rs, t+3*L, applyDelivery, w.shards[rs])
			}
		}
	}
}

// sample snapshots this shard's counters; fleet rows are the exact sums
// of these across shards. It runs at t+3L+L/2: after every delivery of
// the tick, before anything of the next.
func (s *wshard) sample(tick int) {
	odo := s.retiredOdo
	for i := range s.locals {
		odo += s.locals[i].OdoMM
	}
	st := s.channel.Stats()
	s.samples = append(s.samples, SampleRow{
		Tick:       tick,
		Active:     int64(len(s.locals)),
		Beacons:    st.Sent,
		Delivered:  st.Delivered,
		LostRange:  st.LostRange,
		LostLoad:   st.LostLoad,
		Applied:    s.applied,
		Suppressed: s.suppressed,
		OdoMM:      odo,
	})
}

// collect sums per-shard state into the fleet result and verifies the
// run's conservation invariants.
func (w *world) collect() (*Result, error) {
	cfg := &w.cfg
	r := &Result{
		Seed:        cfg.Seed,
		Shards:      cfg.Shards,
		Vehicles:    cfg.Vehicles,
		Ticks:       cfg.Ticks,
		CrossEvents: w.sk.CrossEvents(),
		Processed:   w.sk.Processed(),
		Windows:     w.sk.Windows(),
		Wall:        w.sk.WallTime(),
		BusyWall:    w.sk.BusyWall(),
		CritPath:    w.sk.CritPathWall(),
	}
	nRows := len(w.shards[0].samples)
	for _, s := range w.shards {
		if len(s.samples) != nRows {
			return nil, fmt.Errorf("shardworld: shard %d has %d sample rows, shard 0 has %d", s.idx, len(s.samples), nRows)
		}
		r.Radio = r.Radio.Add(s.channel.Stats())
		r.Handoffs += s.hops
	}
	r.Samples = make([]SampleRow, nRows)
	for i := range r.Samples {
		row := w.shards[0].samples[i]
		for _, s := range w.shards[1:] {
			row = row.add(s.samples[i])
		}
		r.Samples[i] = row
		// Conservation: the active fleet must match the churn schedule
		// exactly — a lost or duplicated handoff shows up here.
		want := int64(0)
		for id := 0; id < cfg.Vehicles; id++ {
			if int(w.birth[id]) <= row.Tick && row.Tick < int(w.death[id]) {
				want++
			}
		}
		if row.Active != want {
			return nil, fmt.Errorf("shardworld: tick %d has %d active vehicles, churn schedule says %d", row.Tick, row.Active, want)
		}
		// Every sender-side verdict must have been applied receiver-side.
		if row.Applied != int64(row.Delivered) {
			return nil, fmt.Errorf("shardworld: tick %d applied %d deliveries, channel delivered %d", row.Tick, row.Applied, row.Delivered)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(r.Comparable()))
	r.Checksum = h.Sum64()
	return r, nil
}
