package experiments

import (
	"fmt"

	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/shardworld"
)

// E17ShardedKernel operationalizes the geo-sharded parallel event kernel
// (DESIGN.md "Sharded kernel & conservative lookahead"): the same
// beaconing-fleet scenario — churn and a mid-run beacon outage included —
// runs at 1, 2, 4 and 8 geographic shards, and the experiment verifies
// the tentpole contract directly: the model output (sampled fleet
// counters, radio totals, FNV checksum) is byte-for-byte identical at
// every shard count. Table and Values carry only deterministic
// quantities; how the sharded stack scales in host time is the
// shard_metro workload of `go run ./benchmark`.
func E17ShardedKernel(cfg Config) (*Result, error) {
	shardCounts := []int{1, 2, 4, 8}

	base := shardworld.DefaultConfig(cfg.Seed, 1)
	base.Vehicles = pick(cfg, 120, 240)
	base.Ticks = pick(cfg, 48, 144)
	base.SampleEvery = pick(cfg, 12, 24)
	base.WorldSize = pickF(cfg, 2400, 3600)
	base.ChurnFrac = 0.2
	base.Outage = &shardworld.Outage{
		Rect: outageRect(base.WorldSize),
		// The middle third of the run loses beacons from the world center.
		FromTick: base.Ticks / 3,
		ToTick:   2 * base.Ticks / 3,
	}

	table := metrics.NewTable(
		"E17 — Geo-sharded parallel kernel: output invariance across shard counts",
		"shards", "grid", "kernel events", "cross events", "handoffs", "checksum",
	)
	values := map[string]float64{}

	results := make([]*shardworld.Result, len(shardCounts))
	err := assemble(cfg, table, values, len(shardCounts), func(i int, p *point) error {
		wcfg := base
		wcfg.Shards = shardCounts[i]
		res, err := shardworld.Run(wcfg)
		if err != nil {
			return err
		}
		results[i] = res
		nx, ny := geo.FactorShards(res.Shards)
		p.addRow(
			fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%dx%d", nx, ny),
			fmt.Sprintf("%d", res.Processed),
			fmt.Sprintf("%d", res.CrossEvents),
			fmt.Sprintf("%d", res.Handoffs),
			fmt.Sprintf("%016x", res.Checksum),
		)
		key := fmt.Sprintf("s%d", res.Shards)
		p.set(key+"/cross_events", float64(res.CrossEvents))
		p.set(key+"/handoffs", float64(res.Handoffs))
		return nil
	})
	if err != nil {
		return nil, err
	}

	identical := 1.0
	verdict := "identical"
	serial := results[0].Comparable()
	for _, res := range results[1:] {
		if res.Comparable() != serial {
			identical = 0
			verdict = "DIVERGED"
		}
	}
	table.AddRow("all", "-", "-", "-", "-", verdict)
	values["identical"] = identical

	return &Result{ID: "E17", Table: table, Values: values}, nil
}

// outageRect is the world-center region the E17 outage silences.
func outageRect(world float64) geo.Rect {
	return geo.NewRect(
		geo.Point{X: world / 4, Y: world / 4},
		geo.Point{X: 3 * world / 4, Y: 3 * world / 4},
	)
}
