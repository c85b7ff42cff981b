package main

// The benchmark's contract: workloads, end-to-end metrics with their
// regression bounds, and the per-layer ledger. BENCHMARK.json at the
// repository root states the same lists for the driver; TestSpecMatchesJSON
// keeps the two from drifting.

// metricSpec names one reported number.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have no bound (zero).
	Bound float64
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"vanet_city", "1000 moving vehicles on a city grid with beacons, clustering and routed unicast flows, no cloud: sim, mobility, geo, radio, vnet, cluster and routing do all the work"},
	{"cloud_storm", "convoy cloud on a congested highway with failover, RSU edges, K=3 voting over 20% lying members, DAG jobs and a seeded fault drill: controller, voting, DAG scheduler, checkpoints, trust"},
	{"parked_kv_offload", "parked lot serving replicated and erasure-coded KV under departures, write-heavy then read-heavy, beside governor-routed offload over a contended uplink: store, governor, uplink, geo query-only"},
	{"secure_join", "parked fleet authenticating to gate RSUs under four schemes against a CRL of thousands, then opening sealed packages: cryptoprim, pki, auth and access dominate"},
	{"shard_metro", "RunShardWorld with 5000 vehicles, churn and a regional outage at a fixed 2 shards: the only workload on the sharded stack and the only one where cpu_s and wall_s diverge"},
}

// Host-time metrics are medians over the repetitions of one run; the
// virtual-time metrics are exact and identical across repetitions.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"op_ok_ratio", "ratio", "higher", 0.05},
	{"vt_p50_ms", "ms", "lower", 0.20},
	{"vt_p99_ms", "ms", "lower", 0.25},
	{"deadline_hit_ratio", "ratio", "higher", 0.05},
}

// hostMetrics are the end-to-end metrics measured in host time.
var hostMetrics = []string{"setup_s", "wall_s", "cpu_s", "alloc_mb", "peak_rss_mb"}

// virtualMetrics are the end-to-end metrics measured in virtual time or
// as exact counts; they must repeat exactly for one seed.
var virtualMetrics = []string{"op_ok_ratio", "vt_p50_ms", "vt_p99_ms", "deadline_hit_ratio"}

// Per-layer ledger. Source of each number: (c) exact counter read from a
// layer's public accessors or from the result callbacks after the run,
// (s) span the benchmark records around its own call into the layer,
// (p) isolated probe over inputs snapshotted from the workload's world.
// A layer a workload does not exercise reads 0 there.
var perLayer = []metricSpec{
	// sim
	{"sim.events", "count", "lower", 0},
	{"sim.run_self_s", "s", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.pending_max", "count", "lower", 0},
	{"sim.probe_sched_fire_ns", "ns", "lower", 0},
	// sim_shard
	{"sim_shard.windows", "count", "lower", 0},
	{"sim_shard.cross_events", "count", "lower", 0},
	{"sim_shard.handoffs", "count", "lower", 0},
	{"sim_shard.busy_s", "s", "lower", 0},
	{"sim_shard.crit_path_s", "s", "lower", 0},
	{"sim_shard.barrier_share", "ratio", "lower", 0},
	{"sim_shard.imbalance", "ratio", "lower", 0},
	{"sim_shard.speedup_wall_s2", "ratio", "higher", 0},
	{"sim_shard.speedup_wall_s4", "ratio", "higher", 0},
	// geo
	{"geo.updates", "count", "lower", 0},
	{"geo.query_hits_mean", "count", "lower", 0},
	{"geo.probe_update_ns", "ns", "lower", 0},
	{"geo.probe_query_ns", "ns", "lower", 0},
	{"geo.est_share", "ratio", "lower", 0},
	// mobility
	{"mobility.steps", "count", "lower", 0},
	{"mobility.probe_step_ns_per_veh", "ns", "lower", 0},
	{"mobility.est_share", "ratio", "lower", 0},
	// radio
	{"radio.sent", "count", "lower", 0},
	{"radio.delivered", "count", "higher", 0},
	{"radio.lost_range", "count", "lower", 0},
	{"radio.lost_load", "count", "lower", 0},
	{"radio.delivery_ratio", "ratio", "higher", 0},
	{"radio.probe_send_ns_per_rx", "ns", "lower", 0},
	{"radio.est_share", "ratio", "lower", 0},
	{"radio.uplink_delivered", "count", "higher", 0},
	{"radio.uplink_lost", "count", "lower", 0},
	{"radio.uplink_dropped", "count", "lower", 0},
	{"radio.uplink_queue_p99_ms", "ms", "lower", 0},
	{"radio.bwe_error_ratio", "ratio", "lower", 0},
	// vnet
	{"vnet.neighbors_mean", "count", "lower", 0},
	// cluster, routing
	{"cluster.head_changes", "count", "lower", 0},
	{"cluster.probe_decide_ns", "ns", "lower", 0},
	{"routing.sent", "count", "lower", 0},
	{"routing.delivered", "count", "higher", 0},
	{"routing.transmissions", "count", "lower", 0},
	{"routing.hops_mean", "count", "lower", 0},
	// vcloud
	{"vcloud.submitted", "count", "lower", 0},
	{"vcloud.completed", "count", "higher", 0},
	{"vcloud.failed", "count", "lower", 0},
	{"vcloud.retries", "count", "lower", 0},
	{"vcloud.dispatches_per_completion", "ratio", "lower", 0},
	{"vcloud.failovers", "count", "lower", 0},
	{"vcloud.checkpoints", "count", "lower", 0},
	{"vcloud.merges", "count", "lower", 0},
	{"vcloud.deduped", "count", "lower", 0},
	{"vcloud.stale_rejected", "count", "lower", 0},
	{"vcloud.submit_s", "s", "lower", 0},
	{"vcloud.submit_ns_p50", "ns", "lower", 0},
	{"vcloud.probe_ckpt_encode_ns", "ns", "lower", 0},
	{"vcloud.probe_ckpt_decode_ns", "ns", "lower", 0},
	{"vcloud.jobs_completed", "count", "higher", 0},
	{"vcloud.stage_retries", "count", "lower", 0},
	{"vcloud.job_vt_p50_ms", "ms", "lower", 0},
	{"vcloud.gov_placed_vehicle", "count", "higher", 0},
	{"vcloud.gov_placed_cloud", "count", "higher", 0},
	{"vcloud.gov_shed", "count", "lower", 0},
	{"vcloud.gov_rejected", "count", "lower", 0},
	{"vcloud.gov_switches", "count", "lower", 0},
	// store
	{"store.put_s", "s", "lower", 0},
	{"store.get_s", "s", "lower", 0},
	{"store.repair_s", "s", "lower", 0},
	{"store.put_ns_p50", "ns", "lower", 0},
	{"store.get_ns_p50", "ns", "lower", 0},
	{"store.writes", "count", "lower", 0},
	{"store.acked", "count", "higher", 0},
	{"store.reads", "count", "lower", 0},
	{"store.served", "count", "higher", 0},
	{"store.repaired", "count", "lower", 0},
	{"store.write_amplification", "ratio", "lower", 0},
	{"store.lost_acked", "count", "lower", 0},
	{"store.put_vt_p50_ms", "ms", "lower", 0},
	{"store.get_vt_p50_ms", "ms", "lower", 0},
	// trust
	{"trust.updates", "count", "lower", 0},
	{"trust.byz_excluded_ratio", "ratio", "higher", 0},
	{"trust.probe_update_ns", "ns", "lower", 0},
	// cryptoprim, pki, auth, access
	{"cryptoprim.probe_sign_ns", "ns", "lower", 0},
	{"cryptoprim.probe_verify_ns", "ns", "lower", 0},
	{"cryptoprim.probe_groupsig_verify_ns", "ns", "lower", 0},
	{"cryptoprim.est_share", "ratio", "lower", 0},
	{"pki.enroll_s", "s", "lower", 0},
	{"pki.crl_entries", "count", "lower", 0},
	{"auth.handshakes_ok", "count", "higher", 0},
	{"auth.handshakes_failed", "count", "lower", 0},
	{"auth.verify_ops", "count", "lower", 0},
	{"auth.crl_scans_per_hs", "count", "lower", 0},
	{"auth.bytes_per_hs", "count", "lower", 0},
	{"auth.vt_p50_ms", "ms", "lower", 0},
	{"access.evaluate_ns_p50", "ns", "lower", 0},
	{"access.open_ns_p50", "ns", "lower", 0},
	// scenario, roadnet, faults
	{"scenario.build_s", "s", "lower", 0},
	{"roadnet.build_s", "s", "lower", 0},
	{"roadnet.probe_shortest_path_ns", "ns", "lower", 0},
	{"faults.injected", "count", "lower", 0},
	// runtime and the benchmark itself
	{"go.mallocs", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.unattributed_share", "ratio", "lower", 0},
	{"bench.steal_share", "ratio", "lower", 0},
	{"bench.op_fail_ratio", "ratio", "lower", 0},
	{"bench.vt_samples", "count", "higher", 0},
	{"bench.vt_tail_pct", "%", "higher", 0},
}

// exactLayer lists the per-layer metrics that are exact for one seed —
// (c) counters and virtual-time figures. They must repeat exactly between
// runs of one commit, and a change that claims only to speed the simulator
// up must leave every one of them identical. The rest of the ledger is
// host time: spans, probes and the shares derived from them.
var exactLayer = map[string]bool{
	"sim.events": true, "sim.pending_max": true,
	"sim_shard.windows": true, "sim_shard.cross_events": true, "sim_shard.handoffs": true,
	"geo.query_hits_mean": true,
	"radio.sent":          true, "radio.delivered": true, "radio.lost_range": true, "radio.lost_load": true,
	"radio.delivery_ratio": true, "radio.uplink_delivered": true, "radio.uplink_lost": true,
	"radio.uplink_dropped": true, "radio.uplink_queue_p99_ms": true, "radio.bwe_error_ratio": true,
	"vnet.neighbors_mean": true, "cluster.head_changes": true,
	"routing.sent": true, "routing.delivered": true, "routing.transmissions": true, "routing.hops_mean": true,
	"vcloud.submitted": true, "vcloud.completed": true, "vcloud.failed": true, "vcloud.retries": true,
	"vcloud.dispatches_per_completion": true, "vcloud.failovers": true,
	"vcloud.merges": true, "vcloud.deduped": true, "vcloud.stale_rejected": true,
	"vcloud.jobs_completed": true, "vcloud.stage_retries": true, "vcloud.job_vt_p50_ms": true,
	"vcloud.gov_placed_vehicle": true, "vcloud.gov_placed_cloud": true, "vcloud.gov_shed": true,
	"vcloud.gov_rejected": true, "vcloud.gov_switches": true,
	"store.writes": true, "store.acked": true, "store.reads": true, "store.served": true,
	"store.repaired": true, "store.write_amplification": true, "store.lost_acked": true,
	"store.put_vt_p50_ms": true, "store.get_vt_p50_ms": true,
	"trust.byz_excluded_ratio": true,
	"pki.crl_entries":          true, "auth.handshakes_ok": true, "auth.handshakes_failed": true, "auth.verify_ops": true,
	"auth.crl_scans_per_hs": true, "auth.bytes_per_hs": true, "auth.vt_p50_ms": true,
	"faults.injected":     true,
	"bench.op_fail_ratio": true, "bench.vt_samples": true, "bench.vt_tail_pct": true,
}

// derivedLayer lists the per-layer work figures that are not read from
// the program: the layer exposes no counter, so the benchmark computes
// them from its own configuration (tick period × fleet, checkpoint period
// × standby-seconds, voters on decided rosters). They size the est_share
// estimates and say whether a layer is exercised at all; a change inside
// the layer cannot move them, so they are outside exactLayer and the
// model digest. They become (c) counters when the layers expose some.
var derivedLayer = map[string]bool{
	"mobility.steps": true, "geo.updates": true, "vcloud.checkpoints": true, "trust.updates": true,
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
