package main

import (
	"fmt"
	"sort"
	"time"

	"vcloud"
)

// shard_metro: the geo-sharded beaconing world (RunShardWorld) at metro
// scale: 5000 vehicles over a 9 km square, a fifth of the ids arriving
// late or leaving early, one regional beacon outage, at a fixed 2 shards.
// It is the only workload on the sharded stack and the only one that
// runs on more than one core.
//
// Open loop by construction: every vehicle beacons once per tick. Op =
// one beacon reception the channel delivered; it fails if the receiver
// never applied it (the world's own conservation check, which aborts the
// run), and is on time if applied within its tick. A single reception's
// latency is a constant of the model (one lookahead), so the virtual-time
// figure of this world is the awareness gap instead: the mean virtual
// time between successive beacon receptions at one active vehicle, one
// sample per tick. Churn thins the fleet and the outage silences a
// region, and both show as longer gaps.
const (
	shardVehicles = 5000
	shardTicks    = 300
	shardWorldM   = 9000
	shardShards   = 2
	shardChurn    = 0.2
	shardSample   = 1 // a sample row per tick: one awareness-gap sample each
	// One set-up of this world takes 30 ms, three ticks of the kernel's
	// steal counter: too short to time on a shared host. The set-up
	// interval is therefore this many set-ups in a row.
	shardSetups = 8
)

type shardMetro struct {
	e   *env
	cfg vcloud.ShardWorldConfig
	res *vcloud.ShardWorldResult
}

func shardConfig(e *env) vcloud.ShardWorldConfig {
	cfg := vcloud.DefaultShardWorldConfig(subSeed(e.seed, "world"), shardShards)
	cfg.Vehicles = e.count(shardVehicles, 100)
	cfg.Ticks = e.count(shardTicks, 20)
	cfg.WorldSize = shardWorldM
	if e.scale < 1 {
		cfg.WorldSize = 2000
	}
	cfg.SampleEvery = shardSample
	cfg.ChurnFrac = shardChurn
	// The outage: a square a fifth of the world wide, somewhere in it, for
	// the middle third of the run, placed by the seed.
	rng := stream(e.seed, "shard.outage")
	side := cfg.WorldSize / 5
	cfg.Outage = &vcloud.ShardOutage{
		Rect:     rectAt(rng.Float64()*(cfg.WorldSize-side), rng.Float64()*(cfg.WorldSize-side), side, side),
		FromTick: cfg.Ticks / 3,
		ToTick:   2 * cfg.Ticks / 3,
	}
	return cfg
}

func buildShardMetro(e *env) (instance, error) {
	w := &shardMetro{e: e, cfg: shardConfig(e)}
	// RunShardWorld builds its world inside the call, so the set-up cost
	// is taken from minimal two-tick runs of the same world: spawning
	// the fleet, partitioning it and priming the indexes dominate them.
	warm := w.cfg
	warm.Ticks, warm.SampleEvery, warm.Outage = 2, 1, nil
	for range shardSetups {
		id := e.tr.begin("RunShardWorld.warmup", -1)
		_, err := vcloud.RunShardWorld(warm)
		e.tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *shardMetro) run() error {
	id := w.e.tr.begin("RunShardWorld", -1)
	res, err := vcloud.RunShardWorld(w.cfg)
	w.e.tr.end(id)
	w.res = res
	return err
}

func (w *shardMetro) finish() (*outcome, error) {
	r := w.res
	if len(r.Samples) == 0 {
		return nil, fmt.Errorf("no sample row")
	}
	last := r.Samples[len(r.Samples)-1]
	var steps float64
	for _, s := range r.Samples {
		steps += float64(s.Active) * float64(w.cfg.SampleEvery)
	}
	cand := float64(r.Radio.Delivered + r.Radio.LostRange + r.Radio.LostLoad)
	telemetry := map[string]float64{
		"sim.events":             float64(r.Processed),
		"sim_shard.windows":      float64(r.Windows),
		"sim_shard.cross_events": float64(r.CrossEvents),
		"sim_shard.handoffs":     float64(r.Handoffs),
	}
	c := map[string]float64{
		"radio.sent":       float64(r.Radio.Sent),
		"radio.delivered":  float64(r.Radio.Delivered),
		"radio.lost_range": float64(r.Radio.LostRange),
		"radio.lost_load":  float64(r.Radio.LostLoad),
		"faults.injected":  float64(last.Suppressed), // beacons the outage silenced
	}
	if cand > 0 && r.Radio.Sent > 0 {
		c["radio.delivery_ratio"] = float64(r.Radio.Delivered) / cand
		c["geo.query_hits_mean"] = cand / float64(r.Radio.Sent)
	}
	out := &outcome{
		Attempted: int(last.Delivered),
		OK:        int(last.Applied),
		OnTime:    int(last.Applied),
		Latencies: awarenessGaps(r.Samples, w.cfg.TickEvery),
		Counters:  c,
		// The world keeps no step counter: derived as the active fleet at
		// each sample × the ticks between samples, one index rewrite each.
		Derived:   map[string]float64{"mobility.steps": steps, "geo.updates": steps},
		Telemetry: telemetry,
		OpDigest:  r.Checksum,
	}
	if last.Applied > int64(last.Delivered) {
		out.Breaches = append(out.Breaches, fmt.Sprintf("applied %d receptions of %d delivered", last.Applied, last.Delivered))
	}
	return out, nil
}

// awarenessGaps returns, ascending and in ms, the mean virtual time
// between successive beacon receptions at one active vehicle over each
// sample window that saw a reception: window length × active vehicles ÷
// receptions applied in the window.
func awarenessGaps(samples []vcloud.ShardSampleRow, tick time.Duration) []float64 {
	gaps := []float64{}
	prevTick, prevApplied := -1, int64(0)
	for _, s := range samples {
		if got := s.Applied - prevApplied; got > 0 {
			window := time.Duration(s.Tick-prevTick) * tick
			gaps = append(gaps, float64(window)/float64(time.Millisecond)*float64(s.Active)/float64(got))
		}
		prevTick, prevApplied = s.Tick, s.Applied
	}
	sort.Float64s(gaps)
	return gaps
}

// probes runs the same world at 1 and 4 shards for the scaling rows, and
// reads the sharded kernel's own telemetry of the timed run.
func (w *shardMetro) probes(layer map[string]float64) []string {
	r := w.res
	layer["sim_shard.busy_s"] = r.BusyWall.Seconds()
	layer["sim_shard.crit_path_s"] = r.CritPath.Seconds()
	if r.Wall > 0 {
		// The part of the wall clock no shard's critical path accounts
		// for: barrier waits, cross-shard merges, window bookkeeping.
		layer["sim_shard.barrier_share"] = 1 - r.CritPath.Seconds()/r.Wall.Seconds()
	}
	if r.BusyWall > 0 {
		// How far the slowest shard runs ahead of the mean shard.
		layer["sim_shard.imbalance"] = r.CritPath.Seconds()*float64(r.Shards)/r.BusyWall.Seconds() - 1
	}
	walls := map[int]float64{r.Shards: r.Wall.Seconds()}
	var breaches []string
	for _, n := range []int{1, 4} {
		cfg := w.cfg
		cfg.Shards = n
		id := w.e.tr.begin(fmt.Sprintf("RunShardWorld.shards%d", n), -1)
		res, err := vcloud.RunShardWorld(cfg)
		w.e.tr.end(id)
		switch {
		case err != nil:
			breaches = append(breaches, fmt.Sprintf("%d shards: %v", n, err))
		case res.Checksum != r.Checksum:
			breaches = append(breaches, fmt.Sprintf("checksum %016x at %d shards, %016x at %d", res.Checksum, n, r.Checksum, r.Shards))
		default:
			walls[n] = res.Wall.Seconds()
		}
	}
	if walls[1] > 0 && walls[2] > 0 && walls[4] > 0 {
		layer["sim_shard.speedup_wall_s2"] = walls[1] / walls[2]
		layer["sim_shard.speedup_wall_s4"] = walls[1] / walls[4]
	}
	return breaches
}
