// Command vcloudsim runs a single vehicular-cloud scenario and prints a
// summary: cloud formation, task outcomes and radio statistics.
//
//	vcloudsim -scenario highway -arch dynamic -vehicles 40 -tasks 30 -duration 120
//	vcloudsim -scenario city -arch dynamic -seed 7
//
// A scripted fault plan (see internal/faults) injects deterministic
// failures at absolute virtual times — the run starts at 0s, warm-up
// lasts 10s; -replicas and -retries tune the dependability policy every
// task runs under (0 keeps the default: one copy, three retries) and add
// a per-task table of retry and replica counts:
//
//	vcloudsim -scenario highway -arch infrastructure \
//	  -faults '30s rsu-down 0; 45s partition 1500,0 400 20s; 60s loss 0.3 10s; 80s rsu-up 0'
//	vcloudsim -scenario parkinglot -arch stationary -replicas 3 -retries 3
//
// -soak runs the chaos soak harness (see internal/chaos) instead: a
// seeded storm of crashes, partitions, loss bursts, controller kills and
// Byzantine flips with the dependability invariants asserted
// continuously; the exit code reports violations. -splitbrain adds epoch
// fencing and controller isolations, -store replicated|ec the storage
// service over permanent departures, -dag the DAG job workload with
// member kills, and -saturate the congestion workload over a contended
// uplink:
//
//	vcloudsim -soak -duration 600 -vehicles 20 -byz 0.25 -seed 7
//	vcloudsim -soak -store ec -splitbrain -duration 300 -vehicles 16 -seed 7
//	vcloudsim -soak -saturate -duration 300 -vehicles 16 -seed 7
//
// The whole command line is checked before anything simulates: a bad
// value, or a flag the chosen mode would ignore, exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"time"

	root "vcloud"
	"vcloud/internal/chaos"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/trace"
	ivc "vcloud/internal/vcloud"
	"vcloud/internal/world"
)

func main() {
	os.Exit(cliMain(os.Args[1:]))
}

// options is the parsed command line.
type options struct {
	scen, arch        string
	vehicles, tasks   int
	duration          float64
	seed              int64
	secure            bool
	traceN            int
	faults            string
	replicas, retries int
	soak              bool
	byz               float64
	split, dag, sat   bool
	store             string
	cpuprof           string
}

// Flags that only one mode reads: a flag given to the other mode would
// be silently dropped, so it is rejected instead.
var (
	soakOnly = []string{"byz", "splitbrain", "dag", "store", "saturate"}
	runOnly  = []string{"scenario", "arch", "tasks", "secure", "trace", "faults", "replicas", "retries"}
)

// cliMain returns the process exit code instead of calling os.Exit, so
// the CPU-profile teardown below always runs and its errors are
// reported — the earlier os.Exit error paths silently truncated the
// profile file.
func cliMain(args []string) int {
	o, spec, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcloudsim:", err)
		return 2
	}

	body := func() int {
		var err error
		if o.soak {
			err = runSoak(o)
		} else {
			err = run(o, spec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcloudsim:", err)
			return 1
		}
		return 0
	}
	if o.cpuprof == "" {
		return body()
	}

	f, err := os.Create(o.cpuprof)
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

// parseFlags parses and checks the whole command line before anything
// simulates: the range checks of the world (fleet, Byzantine fraction,
// dependability policy, fault plan) are world.Spec's, the soak's are
// chaos's, and a flag the chosen mode would ignore is an error. In
// scenario mode it returns the world spec the flags map onto.
func parseFlags(args []string) (options, world.Spec, error) {
	var o options
	fs := flag.NewFlagSet("vcloudsim", flag.ContinueOnError)
	fs.StringVar(&o.scen, "scenario", "highway", "highway | city | parkinglot")
	fs.StringVar(&o.arch, "arch", "dynamic", "stationary | infrastructure | dynamic")
	fs.IntVar(&o.vehicles, "vehicles", 40, "vehicle count")
	fs.IntVar(&o.tasks, "tasks", 30, "tasks to submit")
	fs.Float64Var(&o.duration, "duration", 120, "simulated seconds after warm-up")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.secure, "secure", false, "gate cloud membership behind mutual authentication (§V.A)")
	fs.IntVar(&o.traceN, "trace", 0, "dump the last N task-lifecycle trace events")
	fs.StringVar(&o.faults, "faults", "", "fault plan, e.g. '30s rsu-down 0; 45s partition 1500,0 400 20s' (times are absolute virtual times)")
	fs.IntVar(&o.replicas, "replicas", 0, "redundant copies per task with majority voting (0 means the default single copy)")
	fs.IntVar(&o.retries, "retries", 0, "max backoff retry rounds per task (0 means the default, 3)")
	fs.BoolVar(&o.soak, "soak", false, "run the chaos soak harness (uses -seed, -vehicles, -duration, -byz)")
	fs.Float64Var(&o.byz, "byz", 0.2, "fraction of workers returning wrong results (soak mode; 0 soaks honest workers)")
	fs.BoolVar(&o.split, "splitbrain", false, "with -soak: fence epochs and add controller-isolating split-brain storms")
	fs.BoolVar(&o.dag, "dag", false, "with -soak: run the DAG job workload with kill-member storms and the DAG invariants")
	fs.StringVar(&o.store, "store", "", "with -soak: run the storage workload on this backend (replicated | ec)")
	fs.BoolVar(&o.sat, "saturate", false, "with -soak: run the congestion workload with saturation storms and the overload invariants")
	fs.StringVar(&o.cpuprof, "cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return o, world.Spec{}, err
	}
	if fs.NArg() > 0 {
		return o, world.Spec{}, fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !(o.duration > 0) || math.IsInf(o.duration, 1) { // negated so NaN is rejected too
		return o, world.Spec{}, fmt.Errorf("-duration must be positive and finite, got %g", o.duration)
	}
	if o.soak {
		for _, name := range runOnly {
			if set[name] {
				return o, world.Spec{}, fmt.Errorf("-%s has no effect with -soak", name)
			}
		}
		return o, world.Spec{}, soakConfig(o).Validate()
	}
	for _, name := range soakOnly {
		if set[name] {
			return o, world.Spec{}, fmt.Errorf("-%s requires -soak", name)
		}
	}
	if o.tasks < 0 {
		return o, world.Spec{}, fmt.Errorf("-tasks must be non-negative, got %d", o.tasks)
	}
	if o.retries < 0 {
		return o, world.Spec{}, fmt.Errorf("-retries must be non-negative, got %d", o.retries)
	}
	if o.traceN < 0 {
		return o, world.Spec{}, fmt.Errorf("-trace must be non-negative, got %d", o.traceN)
	}
	spec, err := runSpec(o)
	if err != nil {
		return o, world.Spec{}, err
	}
	return o, spec, spec.Validate()
}

// runSpec maps the scenario-mode flags onto a world spec.
func runSpec(o options) (world.Spec, error) {
	spec := world.Spec{Seed: o.seed, Vehicles: o.vehicles}
	switch o.scen {
	case "highway":
		spec.Road = world.Highway(3000, 27)
	case "city":
		spec.Road = world.City()
	case "parkinglot":
		spec.Road, spec.RSUs = world.ParkingLot(200), []geo.Point{world.Gate}
	default:
		return spec, fmt.Errorf("-scenario must be highway, city or parkinglot, got %q", o.scen)
	}
	arch, ok := map[string]ivc.Architecture{"stationary": ivc.Stationary, "infrastructure": ivc.Infrastructure, "dynamic": ivc.Dynamic}[o.arch]
	if !ok {
		return spec, fmt.Errorf("-arch must be stationary, infrastructure or dynamic, got %q", o.arch)
	}
	spec.Cloud = world.Default(arch)
	if arch == ivc.Infrastructure {
		// Infrastructure needs RSUs; place three across the map.
		sites, err := spec.Road.Across(3)
		if err != nil {
			return spec, err
		}
		spec.RSUs = append(spec.RSUs, sites...)
	}
	cloud := spec.Cloud
	if o.replicas != 0 || o.retries != 0 {
		cloud.Config.Controller.Depend = &ivc.DependabilityPolicy{Replicas: o.replicas, MaxRetries: o.retries}
	}
	if o.secure {
		ta, err := root.NewTrustedAuthority("TA", o.seed)
		if err != nil {
			return spec, err
		}
		cloud.Security = &ivc.Security{TA: ta, Metrics: &root.AuthMetrics{}}
	}
	if o.faults != "" {
		plan, err := root.ParseFaultPlan(o.faults)
		if err != nil {
			return spec, err
		}
		spec.Faults = plan
	}
	return spec, nil
}

// soakConfig maps the soak-mode flags onto the chaos soak.
func soakConfig(o options) chaos.SoakConfig {
	return chaos.SoakConfig{
		Seed:        o.seed,
		Vehicles:    o.vehicles,
		Duration:    root.Seconds(o.duration),
		ByzFraction: o.byz,
		SplitBrain:  o.split,
		Storage:     o.store,
		DAG:         o.dag,
		Saturate:    o.sat,
	}
}

// runSoak executes the chaos soak harness and prints its report. A
// non-empty violation list is a process failure: the soak is the
// executable form of the dependability invariants.
func runSoak(o options) error {
	rep, err := chaos.Soak(soakConfig(o))
	if err != nil {
		return err
	}
	fmt.Printf("soak: seed=%d vehicles=%d duration=%.0fs byz=%.2f splitbrain=%v", o.seed, o.vehicles, o.duration, o.byz, o.split)
	if o.store != "" {
		fmt.Printf(" store=%s", o.store)
	}
	if o.dag {
		fmt.Printf(" dag=on")
	}
	if o.sat {
		fmt.Printf(" saturate=on")
	}
	fmt.Println()
	fmt.Printf("tasks: submitted=%d completed=%d failed=%d refused=%d correct=%d wrong=%d unchecked=%d\n",
		rep.Submitted, rep.Completed, rep.Failed, rep.Refused, rep.Correct, rep.Wrong, rep.Unchecked)
	fmt.Printf("availability: completed=%d/%d refused=%d longest-refused-streak=%d at=%s length=%s lost=%d memberless=%d\n",
		rep.Completed, rep.Submitted, rep.Refused, rep.RefusedStreak, rep.RefusedFrom, rep.RefusedFor,
		rep.Submitted-rep.Completed-rep.Failed, rep.Memberless)
	cs := rep.Cloud
	fmt.Printf("storm: %d fault(s) injected, %d failover(s), %d invariant sweep(s)\n",
		rep.FaultsInjected, cs.Failovers.Value(), rep.Checks)
	if o.split {
		fmt.Printf("fencing: %d split(s), highest epoch %d, %d abdication(s), %d merge(s), %d task(s) adopted, %d outcome(s) deduped, %d stale msg(s) rejected\n",
			rep.SplitBrains, rep.Epochs, cs.Abdications.Value(), cs.Merges.Value(), cs.Adopted.Value(),
			cs.Deduped.Value(), cs.StaleRejected.Value())
	}
	if o.store != "" {
		fmt.Printf("storage: writes=%d acked=%d reads=%d served=%d lost=%d repaired=%d departures=%d/%d\n",
			rep.StorageWrites, rep.StorageAcked, rep.StorageReads, rep.StorageReadsOK,
			rep.StorageLost, rep.StorageRepaired, rep.Departures, rep.DepartBeats)
	}
	if o.dag {
		fmt.Printf("jobs: submitted=%d completed=%d partial=%d failed=%d refused=%d resumed=%d\n",
			rep.JobsSubmitted, rep.JobsCompleted, rep.JobsPartial, rep.JobsFailed, rep.JobsRefused, cs.JobsResumed.Value())
		fmt.Printf("stages: retries=%d member-kills=%d\n", cs.StageRetries.Value(), rep.MemberKills)
	}
	if o.sat {
		fmt.Printf("congestion: submitted=%d (required=%d) refused=%d completed=%d failed=%d shed=%d admission=%d backpressured=%d\n",
			rep.SatSubmitted, rep.SatRequired, rep.SatRefused, rep.SatCompleted, rep.SatFailed,
			rep.SatShed, rep.SatAdmission, rep.SatBackpressured)
		fmt.Printf("placement: vehicle=%d cloud=%d switches=%d, %d loss burst(s), %d uplink outage(s)\n",
			rep.SatPlacedVehicle, rep.SatPlacedCloud, cs.TierSwitches.Value(),
			rep.SatLossBursts, rep.SatOutages)
		fmt.Printf("uplink: sent=%d delivered=%d lost=%d dropped=%d\n",
			rep.UplinkSent, rep.UplinkDelivered, rep.UplinkLost, rep.UplinkDropped)
	}
	for _, f := range rep.FaultLog {
		fmt.Printf("  %s\n", f)
	}
	fmt.Printf("checksum: %016x (same seed reproduces bit-for-bit)\n", rep.Checksum)
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Printf("VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d invariant violation(s)", len(rep.Violations))
	}
	fmt.Println("invariants: all held")
	return nil
}

// run builds the spec's world, warms it up, submits the task batch and
// prints the summary.
func run(o options, spec world.Spec) error {
	var rec *trace.Recorder
	if o.traceN > 0 {
		var err error
		if rec, err = trace.NewRecorder(o.traceN); err != nil {
			return err
		}
		spec.Cloud.Config.Controller.Trace = rec.Record
	}
	w, err := world.Build(spec)
	if err != nil {
		return err
	}
	s, cloud, stats := w.Scenario, w.Cloud, w.Stats
	if err := w.Start(10 * time.Second); err != nil {
		return err
	}

	members := 0
	for _, c := range cloud.ActiveControllers() {
		members += c.NumMembers()
	}
	fmt.Printf("scenario=%s arch=%s vehicles=%d: %d controller(s), %d member(s) after warm-up\n",
		o.scen, o.arch, len(s.VehicleIDs()), len(cloud.ActiveControllers()), members)

	results := make([]root.TaskResult, 0, o.tasks)
	for i := 0; i < o.tasks; i++ {
		err := cloud.SubmitAnywhere(root.Task{Ops: 2000, InputBytes: 2000, OutputBytes: 1000},
			func(r root.TaskResult) { results = append(results, r) })
		if err != nil {
			fmt.Printf("  submit %d refused: %v\n", i, err)
		}
	}
	if err := s.RunFor(root.Seconds(o.duration)); err != nil {
		return err
	}

	fmt.Printf("tasks: submitted=%d completed=%d failed=%d retries=%d handovers=%d\n",
		stats.Submitted.Value(), stats.Completed.Value(), stats.Failed.Value(),
		stats.Retries.Value(), stats.Handovers.Value())
	if spec.Cloud.Config.Controller.Depend != nil {
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
	if sec := spec.Cloud.Security; sec != nil {
		authMet := sec.Metrics
		fmt.Printf("auth: %d handshakes ok, %d failures, %d timeouts, p50 %.1fms\n",
			authMet.Successes.Value(), authMet.Failures.Value(), authMet.Timeouts.Value(),
			authMet.Latency.Percentile(50))
	}
	rs := s.Medium.Stats()
	fmt.Printf("radio: sent=%d delivered=%d lost(range)=%d lost(load)=%d, %.1f MB on air\n",
		rs.Sent, rs.Delivered, rs.LostRange, rs.LostLoad, float64(rs.BytesOnAir)/(1<<20))
	if o.faults != "" {
		fs := w.Injector.Stats()
		fmt.Printf("faults: %d event(s) applied, %d frame(s) suppressed\n", fs.Applied, fs.DroppedFrames)
		for _, line := range w.Injector.Log() {
			fmt.Printf("  %s\n", line)
		}
	}
	if rec != nil {
		fmt.Printf("trace: %d events recorded; tail follows\n", rec.Count())
		if err := rec.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
