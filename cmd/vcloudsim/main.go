// Command vcloudsim runs a single vehicular-cloud scenario and prints a
// summary: cloud formation, task outcomes and radio statistics.
//
// Usage:
//
//	vcloudsim -scenario highway -arch dynamic -vehicles 40 -tasks 30 -duration 120
//	vcloudsim -scenario parkinglot -arch stationary
//	vcloudsim -scenario city -arch dynamic -seed 7
//
// A scripted fault plan (see internal/faults) injects deterministic
// failures at absolute virtual times — the run starts at 0s, warm-up
// lasts 10s:
//
//	vcloudsim -scenario highway -arch infrastructure \
//	  -faults '30s rsu-down 0; 45s partition 1500,0 400 20s; 60s loss 0.3 10s; 80s rsu-up 0'
//	vcloudsim -scenario parkinglot -arch stationary -faults '40s kill-controller 0'
//
// -replicas enables the dependable-execution policy (redundant copies,
// majority voting, backoff retries) and prints a per-task table of
// retry and replica counts:
//
//	vcloudsim -scenario parkinglot -arch stationary -replicas 3 -retries 3
//
// -soak runs the chaos soak harness instead of a plain scenario: a
// seeded randomized storm of crashes, partitions, loss bursts,
// controller kills and Byzantine flips, with dependability invariants
// asserted continuously. The exit code reports violations:
//
//	vcloudsim -soak -duration 600 -vehicles 20 -byz 0.25 -seed 7
//
// -splitbrain extends the soak with epoch fencing and controller
// isolations that split the cloud into two live controllers, plus the
// fencing invariants (one controller accepted per epoch, no outcome
// applied twice) and the epoch/abdication/merge counters:
//
//	vcloudsim -soak -splitbrain -duration 300 -vehicles 16 -seed 7
//
// -store runs the soak with the vehicular data-storage service: a
// session-consistent KV workload over the chosen backend (replicated =
// 3-way strict quorums, ec = 4+2 erasure coding), a permanent-departure
// churn clock (a vehicle drives away and its disk leaves with it), and
// the three storage invariants — no acked write lost while a quorum of
// its replicas survives, no session client ever reads backwards, and a
// served read returns exactly the bytes its version's write stored:
//
//	vcloudsim -soak -store replicated -duration 300 -vehicles 16 -seed 7
//	vcloudsim -soak -store ec -splitbrain -duration 300 -seed 7
//
// -dag runs the soak with the dependent-stage job workload: randomly
// shaped DAG jobs with critical-path replication flow alongside the
// task storm, the storm gains kill-member process deaths, and the DAG
// invariants arm (no stage outcome applied twice, completed job implies
// ancestor completeness, replica budget never exceeded):
//
//	vcloudsim -soak -dag -duration 300 -vehicles 16 -seed 7
//
// -saturate runs the soak with the congestion workload: a ramped
// deadline-task stream offloaded through the placement governor over a
// contended, lossy shared uplink, saturation storms (loss bursts and
// uplink outages), and the overload invariants — bounded queues, only
// optional work shed, and a bandwidth estimate that never exceeds the
// channel's physical capacity:
//
//	vcloudsim -soak -saturate -duration 300 -vehicles 16 -seed 7
//
// -shards adds the geo-sharded kernel storm soak to any soak mode: a
// sequence of seeded storm episodes (fleet churn plus a roaming
// regional beacon outage), each run on N geographic shards and again on
// the serial kernel, with bit-for-bit output equality as the armed
// invariant — a divergence or a conservation breach is a violation like
// any other:
//
//	vcloudsim -soak -saturate -shards 4 -duration 300 -vehicles 16 -seed 7
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"time"

	root "vcloud"
	"vcloud/internal/cluster"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/mobility"
	"vcloud/internal/trace"
	ivc "vcloud/internal/vcloud"
)

func main() {
	os.Exit(cliMain())
}

// cliMain returns the process exit code instead of calling os.Exit, so
// the CPU-profile teardown below always runs and its errors are
// reported — the earlier os.Exit error paths silently truncated the
// profile file.
func cliMain() int {
	var (
		scen     = flag.String("scenario", "highway", "highway | city | parkinglot")
		arch     = flag.String("arch", "dynamic", "stationary | infrastructure | dynamic")
		vehicles = flag.Int("vehicles", 40, "vehicle count")
		tasks    = flag.Int("tasks", 30, "tasks to submit")
		duration = flag.Float64("duration", 120, "simulated seconds after warm-up")
		seed     = flag.Int64("seed", 1, "random seed")
		secure   = flag.Bool("secure", false, "gate cloud membership behind mutual authentication (§V.A)")
		traceN   = flag.Int("trace", 0, "dump the last N task-lifecycle trace events")
		faultStr = flag.String("faults", "", "fault plan, e.g. '30s rsu-down 0; 45s partition 1500,0 400 20s' (times are absolute virtual times)")
		replicas = flag.Int("replicas", 0, "redundant copies per task with majority voting (0 disables the dependability policy)")
		retries  = flag.Int("retries", 0, "max backoff retry rounds per task (with -replicas)")
		soak     = flag.Bool("soak", false, "run the chaos soak harness (uses -seed, -vehicles, -duration, -byz)")
		byz      = flag.Float64("byz", 0.2, "fraction of workers returning wrong results (soak mode; 0 soaks honest workers)")
		split    = flag.Bool("splitbrain", false, "with -soak: fence epochs and add controller-isolating split-brain storms")
		dag      = flag.Bool("dag", false, "with -soak: run the DAG job workload with kill-member storms and the DAG invariants")
		storeB   = flag.String("store", "", "with -soak: run the storage workload on this backend (replicated | ec)")
		sat      = flag.Bool("saturate", false, "with -soak: run the congestion workload with saturation storms and the overload invariants")
		shards   = flag.Int("shards", 0, "with -soak: also storm-soak the geo-sharded kernel at this shard count, checking sharded output == serial bit-for-bit")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vcloudsim: unexpected positional arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	if err := validateFlags(*vehicles, *tasks, *duration, *replicas, *retries, *byz); err != nil {
		fmt.Fprintln(os.Stderr, "vcloudsim:", err)
		return 2
	}
	switch *storeB {
	case "", "replicated", "ec":
	default:
		fmt.Fprintf(os.Stderr, "vcloudsim: -store must be replicated or ec, got %q\n", *storeB)
		return 2
	}
	if *storeB != "" && !*soak {
		fmt.Fprintln(os.Stderr, "vcloudsim: -store requires -soak")
		return 2
	}
	if *dag && !*soak {
		fmt.Fprintln(os.Stderr, "vcloudsim: -dag requires -soak")
		return 2
	}
	if *sat && !*soak {
		fmt.Fprintln(os.Stderr, "vcloudsim: -saturate requires -soak")
		return 2
	}
	if *shards != 0 && !*soak {
		fmt.Fprintln(os.Stderr, "vcloudsim: -shards requires -soak")
		return 2
	}
	if *shards < 0 || *shards == 1 {
		fmt.Fprintln(os.Stderr, "vcloudsim: -shards must be 0 (off) or at least 2")
		return 2
	}

	body := func() int {
		if *soak {
			if err := runSoak(*seed, *vehicles, *duration, *byz, *split, *storeB, *dag, *sat, *shards); err != nil {
				fmt.Fprintln(os.Stderr, "vcloudsim:", err)
				return 1
			}
			return 0
		}
		if err := run(*scen, *arch, *vehicles, *tasks, *duration, *seed, *secure, *traceN, *faultStr, *replicas, *retries); err != nil {
			fmt.Fprintln(os.Stderr, "vcloudsim:", err)
			return 1
		}
		return 0
	}
	if *cpuprof == "" {
		return body()
	}

	f, err := os.Create(*cpuprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcloudsim:", err)
		return 1
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "vcloudsim:", err)
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "vcloudsim: closing cpu profile:", cerr)
		}
		return 1
	}
	code := body()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "vcloudsim: closing cpu profile:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// validateFlags rejects flag values that would otherwise fail deep inside
// a run (or silently distort it, like a negative task count).
func validateFlags(vehicles, tasks int, duration float64, replicas, retries int, byz float64) error {
	switch {
	case vehicles <= 0:
		return fmt.Errorf("-vehicles must be positive, got %d", vehicles)
	case tasks < 0:
		return fmt.Errorf("-tasks must be non-negative, got %d", tasks)
	case !(duration > 0) || math.IsInf(duration, 1): // negated so NaN is rejected too
		return fmt.Errorf("-duration must be positive and finite, got %g", duration)
	case replicas < 0:
		return fmt.Errorf("-replicas must be non-negative, got %d", replicas)
	case retries < 0:
		return fmt.Errorf("-retries must be non-negative, got %d", retries)
	case !(byz >= 0 && byz <= 1): // negated so NaN is rejected too
		return fmt.Errorf("-byz must be in [0, 1], got %g", byz)
	}
	return nil
}

// runSoak executes the chaos soak harness and prints its report. A
// non-empty violation list is a process failure: the soak is the
// executable form of the dependability invariants. With shards >= 2 the
// geo-sharded kernel storm soak runs after the main soak, and its
// violations (sharded output diverging from serial) fail the process
// the same way.
func runSoak(seed int64, vehicles int, duration float64, byz float64, split bool, storeB string, dag bool, sat bool, shards int) error {
	rep, err := root.RunSoak(root.SoakConfig{
		Seed:        seed,
		Vehicles:    vehicles,
		Duration:    root.Seconds(duration),
		ByzFraction: byz,
		SplitBrain:  split,
		Storage:     storeB,
		DAG:         dag,
		Saturate:    sat,
	})
	if err != nil {
		return err
	}
	fmt.Printf("soak: seed=%d vehicles=%d duration=%.0fs byz=%.2f splitbrain=%v", seed, vehicles, duration, byz, split)
	if storeB != "" {
		fmt.Printf(" store=%s", storeB)
	}
	if dag {
		fmt.Printf(" dag=on")
	}
	if sat {
		fmt.Printf(" saturate=on")
	}
	fmt.Println()
	fmt.Printf("tasks: submitted=%d completed=%d failed=%d refused=%d correct=%d wrong=%d unchecked=%d\n",
		rep.Submitted, rep.Completed, rep.Failed, rep.Refused, rep.Correct, rep.Wrong, rep.Unchecked)
	fmt.Printf("storm: %d fault(s) injected, %d failover(s), %d invariant sweep(s)\n",
		rep.FaultsInjected, rep.Failovers, rep.Checks)
	if split {
		fmt.Printf("fencing: %d split(s), highest epoch %d, %d abdication(s), %d merge(s), %d task(s) adopted, %d outcome(s) deduped, %d stale msg(s) rejected\n",
			rep.SplitBrains, rep.Epochs, rep.Abdications, rep.Merges, rep.Adopted, rep.Deduped, rep.StaleRejected)
	}
	if storeB != "" {
		fmt.Printf("storage: writes=%d acked=%d reads=%d served=%d lost=%d repaired=%d departures=%d\n",
			rep.StorageWrites, rep.StorageAcked, rep.StorageReads, rep.StorageReadsOK,
			rep.StorageLost, rep.StorageRepaired, rep.Departures)
	}
	if dag {
		fmt.Printf("jobs: submitted=%d completed=%d partial=%d failed=%d refused=%d resumed=%d\n",
			rep.JobsSubmitted, rep.JobsCompleted, rep.JobsPartial, rep.JobsFailed, rep.JobsRefused, rep.JobsResumed)
		fmt.Printf("stages: retries=%d relays=%d handoffs=%d member-kills=%d\n",
			rep.StageRetries, rep.StageRelays, rep.StageHandoffs, rep.MemberKills)
	}
	if sat {
		fmt.Printf("congestion: submitted=%d (required=%d) completed=%d failed=%d shed=%d admission=%d backpressured=%d\n",
			rep.SatSubmitted, rep.SatRequired, rep.SatCompleted, rep.SatFailed,
			rep.SatShed, rep.SatAdmission, rep.SatBackpressured)
		fmt.Printf("placement: vehicle=%d cloud=%d switches=%d, %d loss burst(s), %d uplink outage(s)\n",
			rep.SatPlacedVehicle, rep.SatPlacedCloud, rep.TierSwitches,
			rep.SatLossBursts, rep.SatOutages)
		fmt.Printf("uplink: sent=%d delivered=%d lost=%d dropped=%d\n",
			rep.UplinkSent, rep.UplinkDelivered, rep.UplinkLost, rep.UplinkDropped)
	}
	for _, f := range rep.FaultLog {
		fmt.Printf("  %s\n", f)
	}
	fmt.Printf("checksum: %016x (same seed reproduces bit-for-bit)\n", rep.Checksum)
	violations := rep.Violations
	if shards >= 2 {
		// Scale the episode count with the soaked horizon: one storm
		// episode per simulated minute, at least two, at most eight.
		episodes := int(duration / 60)
		if episodes < 2 {
			episodes = 2
		}
		if episodes > 8 {
			episodes = 8
		}
		srep, err := root.RunShardSoak(root.ShardSoakConfig{
			Seed:     seed,
			Shards:   shards,
			Episodes: episodes,
			Vehicles: vehicles * 6,
		})
		if err != nil {
			return err
		}
		fmt.Printf("shard soak: shards=%d episodes=%d events=%d cross=%d handoffs=%d delivered=%d\n",
			srep.Shards, srep.Episodes, srep.Events, srep.CrossEvents, srep.Handoffs, srep.Delivered)
		fmt.Printf("shard checksum: %016x (sharded output == serial, bit-for-bit)\n", srep.Checksum)
		violations = append(violations, srep.Violations...)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Printf("VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d invariant violation(s)", len(violations))
	}
	fmt.Println("invariants: all held")
	return nil
}

func run(scen, archName string, vehicles, tasks int, duration float64, seed int64, secure bool, traceN int, faultStr string, replicas, retries int) error {
	var policy *root.DependabilityPolicy
	if replicas > 0 {
		policy = &root.DependabilityPolicy{Replicas: replicas, MaxRetries: retries}
	}
	var s *root.Scenario
	var err error
	switch scen {
	case "highway":
		s, err = root.NewHighwayScenario(root.HighwayOptions{Seed: seed, Vehicles: vehicles})
	case "city":
		s, err = root.NewCityScenario(root.CityOptions{Seed: seed, Vehicles: vehicles})
	case "parkinglot":
		s, err = root.NewParkingLotScenario(root.ParkingLotOptions{Seed: seed, Vehicles: vehicles})
	default:
		return fmt.Errorf("unknown scenario %q", scen)
	}
	if err != nil {
		return err
	}

	var arch root.Architecture
	switch archName {
	case "stationary":
		arch = root.Stationary
	case "infrastructure":
		arch = root.Infrastructure
		// Infrastructure needs RSUs; place three across the map.
		b := s.Network.Bounds()
		for i := 1; i <= 3; i++ {
			x := b.Min.X + b.Width()*float64(i)/4
			if _, err := s.AddRSU(geo.Point{X: x, Y: b.Center().Y}); err != nil {
				return err
			}
		}
	case "dynamic":
		arch = root.Dynamic
	default:
		return fmt.Errorf("unknown architecture %q", archName)
	}

	stats := &root.CloudStats{}
	var rec *trace.Recorder
	if traceN > 0 {
		var err error
		if rec, err = trace.NewRecorder(traceN); err != nil {
			return err
		}
	}
	var cloud *root.Cloud
	var authMet *root.AuthMetrics
	if secure {
		ta, err := root.NewTrustedAuthority("TA", seed)
		if err != nil {
			return err
		}
		authMet = &root.AuthMetrics{}
		sd, err := ivc.DeploySecure(s, arch, deployCfg(rec, policy), ivc.Security{TA: ta, Metrics: authMet}, stats)
		if err != nil {
			return err
		}
		cloud = sd.Deployment
	} else {
		var err error
		cloud, err = ivc.Deploy(s, arch, deployCfg(rec, policy), stats)
		if err != nil {
			return err
		}
	}
	// Scripted fault injection: schedule the plan before the clock moves
	// so every event lands at its absolute virtual time.
	var inj *root.FaultInjector
	if faultStr != "" {
		plan, err := root.ParseFaultPlan(faultStr)
		if err != nil {
			return err
		}
		if inj, err = root.NewFaultInjector(s); err != nil {
			return err
		}
		c := cloud
		inj.OnControllerKill(func(idx int) {
			ctls := c.ActiveControllers()
			if idx >= 0 && idx < len(ctls) {
				ctls[idx].Crash()
			}
		})
		inj.OnMemberKill(func(id int) {
			if m, ok := c.Members[root.VehicleID(id)]; ok {
				m.Stop()
				delete(c.Members, root.VehicleID(id))
			}
		})
		if err := inj.Schedule(plan); err != nil {
			return err
		}
	}

	if err := s.Start(); err != nil {
		return err
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		return err
	}

	members := 0
	for _, c := range cloud.ActiveControllers() {
		members += c.NumMembers()
	}
	fmt.Printf("scenario=%s arch=%s vehicles=%d: %d controller(s), %d member(s) after warm-up\n",
		scen, archName, len(s.VehicleIDs()), len(cloud.ActiveControllers()), members)

	results := make([]root.TaskResult, 0, tasks)
	for i := 0; i < tasks; i++ {
		err := cloud.SubmitAnywhere(root.Task{Ops: 2000, InputBytes: 2000, OutputBytes: 1000},
			func(r root.TaskResult) { results = append(results, r) })
		if err != nil {
			fmt.Printf("  submit %d refused: %v\n", i, err)
		}
	}
	if err := s.RunFor(root.Seconds(duration)); err != nil {
		return err
	}

	fmt.Printf("tasks: submitted=%d completed=%d failed=%d retries=%d handovers=%d\n",
		stats.Submitted.Value(), stats.Completed.Value(), stats.Failed.Value(),
		stats.Retries.Value(), stats.Handovers.Value())
	if policy != nil {
		fmt.Printf("dependability: replicas dispatched=%d wrong votes=%d no-quorum rounds=%d\n",
			stats.ReplicaDispatches.Value(), stats.WrongVotes.Value(), stats.NoQuorum.Value())
		tbl := metrics.NewTable("per-task dependability",
			"task", "outcome", "retries", "replicas", "voters", "latency")
		for _, r := range results {
			outcome := "ok"
			if !r.OK {
				outcome = "failed: " + string(r.Reason)
			}
			tbl.AddRow(fmt.Sprintf("%d", r.ID), outcome,
				fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.Replicas),
				fmt.Sprintf("%d", len(r.Voters)), fmt.Sprintf("%.0fms", float64(r.Latency.Milliseconds())))
		}
		fmt.Print(tbl.String())
	}
	if stats.Latency.Count() > 0 {
		fmt.Printf("latency: p50=%.1fms p95=%.1fms\n",
			stats.Latency.Percentile(50), stats.Latency.Percentile(95))
	}
	if authMet != nil {
		fmt.Printf("auth: %d handshakes ok, %d failures, %d timeouts, p50 %.1fms\n",
			authMet.Successes.Value(), authMet.Failures.Value(), authMet.Timeouts.Value(),
			authMet.Latency.Percentile(50))
	}
	rs := s.Medium.Stats()
	fmt.Printf("radio: sent=%d delivered=%d lost(range)=%d lost(load)=%d, %.1f MB on air\n",
		rs.Sent, rs.Delivered, rs.LostRange, rs.LostLoad, float64(rs.BytesOnAir)/(1<<20))
	if inj != nil {
		fs := inj.Stats()
		fmt.Printf("faults: %d event(s) applied, %d frame(s) suppressed\n", fs.Applied, fs.DroppedFrames)
		for _, line := range inj.Log() {
			fmt.Printf("  %s\n", line)
		}
	}
	if rec != nil {
		fmt.Printf("trace: %d events recorded (%s); tail follows\n", rec.Count(), rec.Summary())
		if err := rec.Dump(os.Stdout, "", 0); err != nil {
			return err
		}
	}
	return nil
}

// deployCfg builds the default deployment config with optional tracing
// and dependability policy.
func deployCfg(rec *trace.Recorder, policy *root.DependabilityPolicy) ivc.DeployConfig {
	return ivc.DeployConfig{
		Handover:    true,
		DwellMode:   mobility.DwellRouteAware,
		ClusterAlgo: cluster.MobilitySimilarity{},
		Controller:  ivc.ControllerConfig{Trace: rec, Depend: policy},
	}
}
