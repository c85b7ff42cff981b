package experiments

import (
	"strings"
	"testing"
)

func quick(t *testing.T, run func(Config) (*Result, error)) *Result {
	t.Helper()
	r, err := run(Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatalf("experiment failed: %v", err)
	}
	if r.Table == nil || len(r.Values) == 0 {
		t.Fatal("experiment produced no output")
	}
	out := r.Table.String()
	if !strings.Contains(out, r.ID) {
		t.Errorf("table title missing experiment id: %q", strings.SplitN(out, "\n", 2)[0])
	}
	t.Logf("\n%s", out)
	return r
}

func TestAllRegistered(t *testing.T) {
	runners := All()
	if len(runners) != 17 {
		t.Fatalf("runners = %d, want 17", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if r.Run == nil || r.ID == "" {
			t.Errorf("runner %q incomplete", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestE1Shape(t *testing.T) {
	r := quick(t, E1CloudComparison)
	v := r.Values
	// Conventional cloud wins on raw latency while healthy...
	if v["conventional/p50ms"] >= v["vehicular/p50ms"] {
		t.Errorf("conventional p50 %.1fms should beat vehicular %.1fms while healthy",
			v["conventional/p50ms"], v["vehicular/p50ms"])
	}
	// ...but dies with its infrastructure, while the vehicular cloud
	// keeps working (Fig. 2 infrastructure-reliance row).
	if v["conventional/outage"] > 0.2 {
		t.Errorf("conventional completed %.0f%% during outage, should collapse", v["conventional/outage"]*100)
	}
	if v["vehicular/outage"] < 0.5*v["vehicular/healthy"] {
		t.Errorf("vehicular outage completion %.2f dropped too much vs healthy %.2f",
			v["vehicular/outage"], v["vehicular/healthy"])
	}
	if v["vehicular/healthy"] < 0.4 {
		t.Errorf("vehicular healthy completion %.2f unreasonably low", v["vehicular/healthy"])
	}
}

func TestE2Shape(t *testing.T) {
	r := quick(t, E2Architectures)
	v := r.Values
	for _, arch := range []string{"stationary", "infrastructure", "dynamic"} {
		if v[arch+"/healthy"] < 0.3 {
			t.Errorf("%s healthy completion %.2f too low", arch, v[arch+"/healthy"])
		}
	}
	// Dynamic degrades least under disaster (Fig. 4 / §IV.A.2 claim).
	dynDrop := v["dynamic/healthy"] - v["dynamic/disaster"]
	infraDrop := v["infrastructure/healthy"] - v["infrastructure/disaster"]
	if dynDrop > infraDrop {
		t.Errorf("dynamic degraded more (%.2f) than infrastructure-based (%.2f)", dynDrop, infraDrop)
	}
	if v["infrastructure/disaster"] > 0.3 {
		t.Errorf("infrastructure cloud should collapse in disaster, got %.2f", v["infrastructure/disaster"])
	}
}

func TestE3Shape(t *testing.T) {
	r := quick(t, E3ClusterStability)
	v := r.Values
	// Mobility-aware clustering must beat lowest-ID on head churn at the
	// higher speed level.
	if v["mobility/30/churn"] >= v["lowest-id/30/churn"] {
		t.Errorf("mobility churn %.2f should be below lowest-id %.2f at 30 m/s",
			v["mobility/30/churn"], v["lowest-id/30/churn"])
	}
	// Vehicles spend most time clustered under every algorithm.
	for _, algo := range []string{"lowest-id", "mobility", "pmc"} {
		if v[algo+"/15/clustered"] < 0.5 {
			t.Errorf("%s clustered share %.2f too low", algo, v[algo+"/15/clustered"])
		}
	}
}

func TestE4Shape(t *testing.T) {
	r := quick(t, E4Routing)
	v := r.Values
	// Epidemic: best-or-equal delivery, worst overhead (at the denser
	// setting).
	if v["epidemic/40/delivery"]+0.05 < v["greedy/40/delivery"] {
		t.Errorf("epidemic delivery %.2f below greedy %.2f", v["epidemic/40/delivery"], v["greedy/40/delivery"])
	}
	if v["epidemic/40/overhead"] <= v["greedy/40/overhead"] {
		t.Errorf("epidemic overhead %.1f should exceed greedy %.1f",
			v["epidemic/40/overhead"], v["greedy/40/overhead"])
	}
	// MoZo at least matches greedy under mobility.
	if v["mozo/40/delivery"]+0.1 < v["greedy/40/delivery"] {
		t.Errorf("mozo delivery %.2f well below greedy %.2f", v["mozo/40/delivery"], v["greedy/40/delivery"])
	}
}

func TestE5Shape(t *testing.T) {
	r := quick(t, E5Authentication)
	v := r.Values
	// Pseudonym verification cost grows with the revoked population
	// under linear CRL scans…
	if v["pseudonym(linear)/200/scans"] <= v["pseudonym(linear)/0/scans"] {
		t.Errorf("linear CRL scans should grow with revocations: %v vs %v",
			v["pseudonym(linear)/200/scans"], v["pseudonym(linear)/0/scans"])
	}
	// …while bloom stays near-constant, and group/hybrid avoid the
	// per-pseudonym CRL entirely.
	if v["pseudonym(bloom)/200/scans"] > 5 {
		t.Errorf("bloom scans %.1f should be near zero", v["pseudonym(bloom)/200/scans"])
	}
	if v["hybrid/200/scans"] > 1 {
		t.Errorf("hybrid should not scan CRLs, got %.1f", v["hybrid/200/scans"])
	}
	// Group/hybrid handshakes are smaller on air than certificate
	// exchanges (Fig. 5).
	if v["group/0/bytes"] >= v["pseudonym(linear)/0/bytes"] {
		t.Errorf("group bytes %v should be below pseudonym %v",
			v["group/0/bytes"], v["pseudonym(linear)/0/bytes"])
	}
}

func TestE6Shape(t *testing.T) {
	r := quick(t, E6AccessControl)
	v := r.Values
	// Decisions stay in the sub-microsecond-to-microsecond band — far
	// inside §III.C's milliseconds budget — and emergency escalation is
	// not more expensive than normal evaluation by more than ~10×.
	for _, n := range []string{"10", "100"} {
		if v[n+"/ns"] <= 0 || v[n+"/ns"] > 1e6 {
			t.Errorf("ns/decision out of range for %s policies: %v", n, v[n+"/ns"])
		}
		if v[n+"/emergency-ns"] > 10*v[n+"/ns"]+1e4 {
			t.Errorf("emergency path too slow: %v vs %v", v[n+"/emergency-ns"], v[n+"/ns"])
		}
	}
}

func TestE7Shape(t *testing.T) {
	r := quick(t, E7TaskHandover)
	v := r.Values
	if v["handover(route)/completion"] < v["drop/completion"] {
		t.Errorf("handover completion %.2f below drop %.2f",
			v["handover(route)/completion"], v["drop/completion"])
	}
	if v["handover(route)/wasted"] >= v["drop/wasted"] {
		t.Errorf("handover waste %.0f should be below drop waste %.0f",
			v["handover(route)/wasted"], v["drop/wasted"])
	}
	if v["handover(route)/handovers"] == 0 {
		t.Error("handover arm performed no handovers")
	}
}

func TestE8Shape(t *testing.T) {
	r := quick(t, E8Replication)
	v := r.Values
	// More replicas → higher availability at every churn level.
	for _, churn := range []string{"0.05", "0.15"} {
		k1 := v["k1/churn"+churn+"/availability"]
		k3 := v["k3/churn"+churn+"/availability"]
		if k3 < k1 {
			t.Errorf("churn %s: k=3 availability %.2f below k=1 %.2f", churn, k3, k1)
		}
	}
	if v["k3/churn0.05/availability"] < 0.9 {
		t.Errorf("k=3 at low churn should be highly available, got %.2f", v["k3/churn0.05/availability"])
	}
	// Files spread over the fleet fail one by one, so each extra copy
	// shows: under heavy churn departed availability rises strictly with
	// k, and repair never moves the whole file set in lockstep (quick
	// mode stores 30 files).
	lockstep := true
	ks := []string{"k1", "k2", "k3"}
	for i, k := range ks {
		key := k + "/churn0.15"
		if i > 0 && v[key+"/availability"] <= v[ks[i-1]+"/churn0.15/availability"] {
			t.Errorf("churn 0.15: availability %.3f at %s not above %s", v[key+"/availability"], k, ks[i-1])
		}
		if int(v[key+"/rereplicas"])%30 != 0 || int(v[key+"/retain/rereplicas"])%30 != 0 {
			lockstep = false
		}
	}
	if lockstep {
		t.Error("every re-replica count is a multiple of the file count: files are failing in lockstep")
	}
	// Battery-sleep retention dominates the departed model: sleepers
	// keep their replicas.
	for _, key := range []string{"k1/churn0.05", "k2/churn0.15"} {
		if v[key+"/retain/availability"] < v[key+"/availability"] {
			t.Errorf("%s: sleeping model %.2f below departed %.2f", key,
				v[key+"/retain/availability"], v[key+"/availability"])
		}
	}
}

func TestE9Shape(t *testing.T) {
	r := quick(t, E9Trust)
	v := r.Values
	// Content-centric validation beats rotating-identity reputation at
	// the high attacker fraction (§III.D claim).
	if v["bayesian+path/0.3/accuracy"] <= v["reputation(rotating)/0.3/accuracy"] {
		t.Errorf("path-diverse bayesian %.2f should beat rotating reputation %.2f",
			v["bayesian+path/0.3/accuracy"], v["reputation(rotating)/0.3/accuracy"])
	}
	// Stable identities would rescue reputation — the diagnosis.
	if v["reputation(stable)/0.3/accuracy"] <= v["reputation(rotating)/0.3/accuracy"] {
		t.Errorf("stable-id reputation %.2f should beat rotating %.2f",
			v["reputation(stable)/0.3/accuracy"], v["reputation(rotating)/0.3/accuracy"])
	}
	// Everything is accurate with few attackers.
	if v["bayesian/0.1/accuracy"] < 0.8 {
		t.Errorf("bayesian at 10%% attackers = %.2f, want high accuracy", v["bayesian/0.1/accuracy"])
	}
}

func TestE10Shape(t *testing.T) {
	r := quick(t, E10Attacks)
	v := r.Values
	if v["dos/flooded"] >= v["dos/clean"] {
		t.Errorf("flood should degrade delivery: %.3f vs %.3f", v["dos/flooded"], v["dos/clean"])
	}
	if v["suppression/compromised"] >= v["suppression/honest"] {
		t.Errorf("suppressor should reduce relay delivery: %.2f vs %.2f",
			v["suppression/compromised"], v["suppression/honest"])
	}
	if v["sybil/diverse"] <= v["sybil/voting"] {
		t.Errorf("path-diverse trust %.2f should resist sybil better than voting %.2f",
			v["sybil/diverse"], v["sybil/voting"])
	}
	// Every value is a share: one outside [0, 1] is no measurement.
	for k, x := range v {
		if !(x >= 0 && x <= 1) {
			t.Errorf("%s = %v, want a share in [0, 1]", k, x)
		}
	}
}

func TestE11Shape(t *testing.T) {
	r := quick(t, E11Failover)
	v := r.Values
	// The issue's acceptance criterion: under the same seeded
	// controller-crash schedule, failover completes at least twice the
	// tasks of the no-failover baseline.
	if v["failover/completion"] < 2*v["baseline/completion"] {
		t.Errorf("failover completion %.2f below 2× baseline %.2f",
			v["failover/completion"], v["baseline/completion"])
	}
	if v["failover/failovers"] != 1 {
		t.Errorf("failover arm promoted %v standbys, want exactly 1", v["failover/failovers"])
	}
	if v["failover/resumed"] == 0 {
		t.Error("promoted controller resumed no checkpointed tasks")
	}
	if v["baseline/failovers"] != 0 {
		t.Errorf("baseline arm must not fail over, got %v", v["baseline/failovers"])
	}
	// The promoted controller must come back well before the baseline's
	// effective "never" (the horizon).
	if v["failover/recovery_s"] >= v["baseline/recovery_s"] {
		t.Errorf("failover recovery %.1fs not faster than baseline %.1fs",
			v["failover/recovery_s"], v["baseline/recovery_s"])
	}
	if v["failover/recovery_s"] > 15 {
		t.Errorf("failover recovery %.1fs too slow (want seconds, not tens)", v["failover/recovery_s"])
	}
}

func TestE12Shape(t *testing.T) {
	r := quick(t, E12Dependability)
	v := r.Values
	// The issue's acceptance criterion: at a Byzantine fraction where the
	// single-copy default (retries, no redundancy) returns <50% correct
	// results, trust-gated redundancy+voting stays >=90% correct.
	if v["retry/byz0.6/correct"] >= 0.5 {
		t.Errorf("retry at 60%% Byzantine = %.2f correct, want <0.5", v["retry/byz0.6/correct"])
	}
	if v["trustgated/byz0.6/correct"] < 0.9 {
		t.Errorf("trust-gated at 60%% Byzantine = %.2f correct, want >=0.9", v["trustgated/byz0.6/correct"])
	}
	// Voting keeps wrong results out entirely at the tolerable fraction.
	if v["redundant/byz0.2/wrong"] != 0 {
		t.Errorf("redundancy accepted %v wrong results at 20%% Byzantine", v["redundant/byz0.2/wrong"])
	}
	if v["retry/byz0.2/wrong"] == 0 {
		t.Error("retry accepted no wrong results at 20% Byzantine: attack not wired")
	}
}

func TestE14Shape(t *testing.T) {
	r := quick(t, E14Storage)
	v := r.Values
	// The issue's acceptance criterion: at the fastest churn the
	// unreplicated strawman loses >30% of acked writes while every
	// redundant arm — quorum or erasure-coded — loses none.
	if v["unreplicated/churn=2s/lost_frac"] <= 0.3 {
		t.Errorf("unreplicated lost %.0f%% at 2s churn, want >30%%",
			v["unreplicated/churn=2s/lost_frac"]*100)
	}
	for _, arm := range []string{"quorum n=3", "quorum n=5", "ec 4+2", "ec 8+4"} {
		for _, churn := range []string{"20s", "5s", "2s"} {
			key := arm + "/churn=" + churn + "/lost_frac"
			if v[key] != 0 {
				t.Errorf("%s lost %.0f%% of acked writes, want 0", key, v[key]*100)
			}
		}
	}
	// Every arm must actually ack a workload.
	for _, arm := range []string{"unreplicated", "quorum n=3", "quorum n=5", "ec 4+2", "ec 8+4"} {
		if v[arm+"/churn=2s/acked"] == 0 {
			t.Errorf("%s acked no writes", arm)
		}
	}
	// Erasure-coded reads fetch K smaller fragments in parallel, so their
	// median read beats whole-copy transfer.
	if v["ec 4+2/churn=2s/p50ms"] >= v["quorum n=3/churn=2s/p50ms"] {
		t.Errorf("ec p50 %.1fms should undercut whole-copy %.1fms",
			v["ec 4+2/churn=2s/p50ms"], v["quorum n=3/churn=2s/p50ms"])
	}
	// And EC pays less write amplification than n-way replication for
	// comparable durability.
	if v["ec 4+2/churn=2s/amplification"] >= v["quorum n=3/churn=2s/amplification"] {
		t.Errorf("ec amplification %.1fx should undercut 3-way %.1fx",
			v["ec 4+2/churn=2s/amplification"], v["quorum n=3/churn=2s/amplification"])
	}
}

func TestE15Shape(t *testing.T) {
	r := quick(t, E15DAGExecution)
	v := r.Values
	// The issue's acceptance criterion: at storm churn the crit-path arm
	// completes at least twice the naive whole-job-restart rate, while
	// spending less on redundancy than replicating every stage.
	if v["crit-path/churn=2s x2/rate"] < 2*v["naive restart/churn=2s x2/rate"] {
		t.Errorf("crit-path completion %.2f below 2x naive %.2f at storm churn",
			v["crit-path/churn=2s x2/rate"], v["naive restart/churn=2s x2/rate"])
	}
	if v["crit-path/churn=2s x2/wasted"] >= v["replicate-all/churn=2s x2/wasted"] {
		t.Errorf("crit-path wasted %.2f should undercut replicate-all %.2f",
			v["crit-path/churn=2s x2/wasted"], v["replicate-all/churn=2s x2/wasted"])
	}
	// Replicating everything must not buy more completion than spending
	// the budget on the critical path — the §V selective-redundancy claim.
	if v["replicate-all/churn=2s x2/rate"] > v["crit-path/churn=2s x2/rate"] {
		t.Errorf("replicate-all rate %.2f should not beat crit-path %.2f",
			v["replicate-all/churn=2s x2/rate"], v["crit-path/churn=2s x2/rate"])
	}
	// The RSU edge tier is churn-proof infrastructure: completion at
	// least as high as crit-path alone, with a shorter median makespan.
	if v["crit+RSU/churn=2s x2/rate"] < v["crit-path/churn=2s x2/rate"] {
		t.Errorf("crit+RSU rate %.2f below plain crit-path %.2f",
			v["crit+RSU/churn=2s x2/rate"], v["crit-path/churn=2s x2/rate"])
	}
	if v["crit+RSU/churn=2s x2/p50s"] >= v["naive restart/churn=2s x2/p50s"] {
		t.Errorf("crit+RSU p50 %.1fs should undercut naive's recovery-laden %.1fs",
			v["crit+RSU/churn=2s x2/p50s"], v["naive restart/churn=2s x2/p50s"])
	}
	// Without churn every arm completes everything; redundancy is the
	// only wasted work and naive wastes nothing.
	for _, arm := range []string{"naive restart", "crit-path", "replicate-all", "crit+RSU"} {
		if v[arm+"/churn=none/rate"] != 1 {
			t.Errorf("%s completed %.0f%% with no churn, want 100%%", arm, v[arm+"/churn=none/rate"]*100)
		}
	}
	if v["naive restart/churn=none/wasted"] != 0 {
		t.Errorf("naive arm wasted %.2f with no churn, want 0", v["naive restart/churn=none/wasted"])
	}
}

func TestE13Shape(t *testing.T) {
	r := quick(t, E13SplitBrain)
	v := r.Values
	// The issue's acceptance criterion: the fenced arm applies no outcome
	// twice while the failover-only baseline duplicates at least one.
	if v["fenced/duplicates"] != 0 {
		t.Errorf("fenced arm applied %v duplicate outcomes, want exactly-once", v["fenced/duplicates"])
	}
	if v["baseline/duplicates"] == 0 {
		t.Error("baseline applied no duplicates: split-brain not induced, experiment proves nothing")
	}
	// Fencing must actually reconcile: the survivor merges shortly after
	// heal, and the two-controller exposure stays bounded while the
	// baseline's persists (neither baseline controller ever stands down).
	if v["fenced/merges"] == 0 {
		t.Error("fenced arm never merged after the partition healed")
	}
	if v["fenced/reconcile_s"] > 10 {
		t.Errorf("reconciliation took %.1fs, want seconds", v["fenced/reconcile_s"])
	}
	if v["fenced/exposure_s"] >= v["baseline/exposure_s"] {
		t.Errorf("fenced split-brain exposure %.1fs should undercut baseline %.1fs",
			v["fenced/exposure_s"], v["baseline/exposure_s"])
	}
	if v["fenced/completion"] < v["baseline/completion"] {
		t.Errorf("fencing cost completion: %.2f vs baseline %.2f",
			v["fenced/completion"], v["baseline/completion"])
	}
}

func TestE16Shape(t *testing.T) {
	r := quick(t, E16CongestionPlacement)
	v := r.Values
	// The issue's acceptance criterion: once the load ramp crosses the
	// uplink's knee, adaptive placement beats both the static arm and the
	// congestion-blind governor on required-work deadline hits.
	if v["adaptive/hitrate"] <= v["static/hitrate"] {
		t.Errorf("adaptive hit-rate %.3f should beat static %.3f",
			v["adaptive/hitrate"], v["static/hitrate"])
	}
	if v["adaptive/hitrate"] <= v["blind/hitrate"] {
		t.Errorf("adaptive hit-rate %.3f should beat blind %.3f",
			v["adaptive/hitrate"], v["blind/hitrate"])
	}
	// The margin is the point: feedback buys a real improvement, not a
	// rounding error (measured ~13–20 points across seeds).
	if v["adaptive/hitrate"]-v["blind/hitrate"] < 0.05 {
		t.Errorf("adaptive margin over blind %.3f below 5 points",
			v["adaptive/hitrate"]-v["blind/hitrate"])
	}
	// Static has no governor, so nothing is ever shed or rejected there.
	if v["static/shed"] != 0 || v["static/rejected"] != 0 {
		t.Errorf("static arm shed %.0f / rejected %.0f, want 0/0",
			v["static/shed"], v["static/rejected"])
	}
}

func TestE17Shape(t *testing.T) {
	v := quick(t, E17ShardedKernel).Values
	if v["identical"] != 1 {
		t.Errorf("identical = %v, want 1: some shard count diverged from the serial output", v["identical"])
	}
	// The sweep really sharded the world: one shard has no border to
	// cross, eight shards cross more of it than two.
	if v["s1/cross_events"] != 0 || v["s2/cross_events"] <= 0 || v["s8/cross_events"] <= v["s2/cross_events"] {
		t.Errorf("cross-shard events at 1/2/8 shards = %.0f/%.0f/%.0f, want 0 < s2 < s8",
			v["s1/cross_events"], v["s2/cross_events"], v["s8/cross_events"])
	}
}
