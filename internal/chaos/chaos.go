// Package chaos is the soak harness for the dependability stack: it
// runs a vehicular cloud under a randomized-but-seeded storm of faults
// — member crashes and recoveries, region partitions, loss bursts,
// controller kills, Byzantine flips — for long simulated horizons while
// a continuous workload flows, and asserts the system's safety
// invariants after every step:
//
//   - no task is reported both completed and failed (each submission's
//     callback fires at most once, and the controller's double-finish
//     tripwire stays silent);
//   - no task is orphaned: between events, every in-flight task holds a
//     pending timer or retry round that will eventually move it;
//   - progress counters are monotone and consistent
//     (completed + failed ≤ submitted, failovers never decrease);
//   - result correctness: a completed task whose voter set contained at
//     most ⌊(K−1)/2⌋ possibly-Byzantine workers carries the correct
//     value (the redundant-execution guarantee; the soak runs with
//     trust-weighted voting off, which is the configuration under which
//     that bound is exact).
//
// Each mode of SoakConfig — SplitBrain, Storage (storage.go), DAG
// (dag.go), Saturate (saturate.go) — adds a workload or a storm branch
// and arms its own invariants; the field docs say which.
//
// "Possibly Byzantine" is a deliberate over-approximation: a voter
// counts as Byzantine for a task if any of its lying intervals
// overlapped the task's lifetime. Over-counting can only skip a check,
// never raise a false alarm, so a reported violation is always real.
//
// Every random draw — fault mix, targets, timings, Byzantine flips —
// comes from named kernel streams, so a soak is a pure function of its
// config: the FNV-1a checksum over the canonical event log and the
// storm's fault log is bit-for-bit reproducible under the same seed,
// and any violation replays exactly. Every storm fault is a
// faults.Event the world's injector applies, so the fault log is the
// injector's log and reads back as a plan.
package chaos

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/trace"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
	"vcloud/internal/world"
)

// SoakConfig tunes a soak run.
type SoakConfig struct {
	// Seed drives everything; equal seeds replay equal soaks.
	Seed int64
	// Vehicles is the parked fleet size.
	Vehicles int
	// ByzFraction of members lie about results (WrongProb 1 while
	// active; lie and honest faults flip them). Zero soaks honest workers.
	ByzFraction float64
	// Duration is the soaked horizon after warm-up.
	Duration sim.Time
	// SplitBrain deploys the cloud with epoch fencing and adds a storm
	// branch that isolates the active controller (with a random minority
	// of its members, never its standby) so the standby promotes and the
	// cloud splits into two live controllers until the isolation heals.
	// It also arms two extra invariants: at most one controller accepted
	// per epoch, and no task outcome applied twice across epochs.
	SplitBrain bool
	// Storage arms the data-service workload: "" (off), "replicated"
	// (strict-quorum whole copies, N=3 W=2 R=2) or "ec" (a (4, 2)
	// erasure code). See storage.go for the workload, the departure
	// storm branch, and the two storage invariants it arms.
	Storage string
	// DAG arms the dependent-stage job workload: a stream of randomly-
	// shaped DAG jobs soaks alongside the task workload, the storm gains
	// a kill-member branch (member-process death, not just radio
	// silence), and the DAG invariants arm — no stage outcome applied
	// twice, completed job implies ancestor completeness, replica budget
	// never exceeded. See dag.go.
	DAG bool
	// Saturate arms the congestion workload (see saturate.go): a shared
	// contended uplink to a conventional cloud, a placement governor
	// routing a ramping task stream between the vehicle tier and the
	// cloud tier on live bandwidth estimates, a storm branch of uplink
	// loss bursts and brief outages, and the saturation invariants — no
	// tier queue grows past its bound, a completion meets its deadline,
	// shed work is only ever optional, outcomes never outnumber
	// submissions, and the bandwidth estimate stays within the channel's
	// configured capacity.
	Saturate bool
}

// Fixed cadences and sizes of a soak; the defaults every soak has run.
const (
	soakWarmup = 10 * time.Second // the cloud forms before the storm
	// soakDrain lets in-flight tasks settle after the horizon before the
	// final audit.
	soakDrain      = 30 * time.Second
	soakTaskEvery  = 500 * time.Millisecond // workload submission period
	soakTaskOps    = 1500                   // size of each task
	soakFaultEvery = 5 * time.Second        // mean fault injection period
	soakCheckEvery = time.Second            // invariant-check period

	storageKeys = 50 // rotating key-space size
	// storageEvery is the KV workload period (one write plus one read
	// per beat).
	storageEvery = 500 * time.Millisecond
	// storageRepairEvery is the harness's repair period (the controller
	// adds churn-driven passes on top).
	storageRepairEvery = 2 * time.Second
	// storageDepartEvery is the permanent-departure churn period: every
	// beat one vehicle drives away for good, its disk with it (and the
	// longest-departed returns wiped once a third of the fleet is out).
	storageDepartEvery = 15 * time.Second

	dagEvery = 3 * time.Second // DAG job submission period

	// saturateEvery is the congestion workload's submission beat; the
	// per-beat batch size ramps over the horizon, so load climbs from
	// under-subscribed to saturating.
	saturateEvery = 250 * time.Millisecond
	// saturateDeadline is the relative deadline stamped on congestion-
	// workload tasks.
	saturateDeadline = 8 * time.Second
)

// soakPolicy is the dependability policy under soak: 3 replicas,
// 3 retries, trust weighting off (see package comment).
var soakPolicy = vcloud.DependabilityPolicy{Replicas: 3, MaxRetries: 3}

// Validate checks config sanity; the fleet and Byzantine-fraction range
// checks are the world spec's.
func (c SoakConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("chaos: duration must be > 0")
	}
	switch c.Storage {
	case "", "replicated", "ec":
	default:
		return fmt.Errorf(`chaos: storage must be "", "replicated" or "ec", got %q`, c.Storage)
	}
	return c.spec().Validate()
}

// spec is the soaked world: the parked fleet around the gate RSU, the
// lowest-ID ByzFraction of it lying. The cloud deploys in Soak, once the
// storage backend it drives exists.
func (c SoakConfig) spec() world.Spec {
	return world.Spec{
		Seed: c.Seed, Road: world.ParkingLot(200), Vehicles: c.Vehicles,
		RSUs: []geo.Point{world.Gate}, Byzantine: c.ByzFraction,
	}
}

// Report is the outcome of a soak run.
type Report struct {
	// Submitted counts tasks entered; Refused counts submissions no
	// active controller would take (cloud headless mid-failover).
	Submitted int
	Refused   int
	// RefusedStreak is the longest run of consecutive refused
	// submissions; it began at RefusedFrom and, one submission per
	// soakTaskEvery, lasted RefusedFor of virtual time. It is measured
	// outside the checksummed event log.
	RefusedStreak int
	RefusedFrom   sim.Time
	RefusedFor    sim.Time
	// Memberless counts the live controllers left with no member at the
	// end. Like the refused streak, it stays out of the event log.
	Memberless int
	// Completed/Failed count callback outcomes. Tasks resumed by a
	// failover successor lose their callbacks, so these can undercount
	// the controller's own totals — the reconciliation the invariant
	// checker performs accounts for that.
	Completed int
	Failed    int
	// Correct/Wrong split completed tasks by result value. Unchecked
	// counts completions whose voter set had too many possibly-
	// Byzantine members for the ⌊(K−1)/2⌋ guarantee to apply.
	Correct   int
	Wrong     int
	Unchecked int
	// FaultLog is the injector's log (faults.Injector.Log): one plan
	// line per storm event, one '#' line per heal. FaultsInjected counts
	// its plan lines.
	FaultsInjected int
	FaultLog       []string
	// Cloud is the soaked cloud's own counters (failovers, fencing, DAG
	// stages, tier switches), read where they are kept.
	Cloud *vcloud.Stats
	// Split-brain counters (meaningful when SplitBrain is on).
	// SplitBrains counts controller-isolation storms injected (the fault
	// log's isolate lines); Epochs is the highest epoch round any member
	// accepted.
	SplitBrains int
	Epochs      uint64
	// Storage workload counters (meaningful when Storage is set).
	// StorageLost counts acked writes that became unreconstructible
	// below the survivor threshold — the regime the service is allowed
	// to lose data in; a loss at or above the threshold is a violation
	// instead. Departures counts the fault log's untimed crash lines:
	// permanent departures, out of DepartBeats beats of the drill (a beat
	// departs nobody when every present vehicle leads the cloud).
	StorageWrites   int
	StorageAcked    int
	StorageReads    int
	StorageReadsOK  int
	StorageLost     int
	StorageRepaired uint64
	Departures      int
	DepartBeats     int
	// DAG workload counters (meaningful when DAG is on). Jobs a failover
	// successor picks up from a checkpoint (Cloud.JobsResumed) lose
	// their callbacks, so completed+failed may undercount submitted by
	// exactly the resumed jobs still finishing elsewhere. MemberKills
	// counts the fault log's kill-member lines: process deaths, on top
	// of the radio-only crash branch.
	JobsSubmitted int
	JobsRefused   int
	JobsCompleted int
	JobsPartial   int
	JobsFailed    int
	MemberKills   int
	// Congestion workload counters (meaningful when Saturate is on).
	// SatSubmitted splits into SatRequired + optional, and SatRefused
	// counts what the governor refused at submit; SatCompleted counts
	// deadline-met completions of either kind. SatShed / SatAdmission /
	// SatBackpressured are the governor's structured rejections;
	// SatPlacedVehicle / SatPlacedCloud are where admitted work landed.
	// SatLossBursts / SatOutages count the fault log's uplink-loss /
	// uplink-down lines. The Uplink* quadruple is the shared channel's
	// final counter state — Lost is stochastic channel loss, Dropped is
	// outage windows, FIFO tail drops and shed flights (the split the
	// vcloudsim summary prints).
	SatSubmitted     int
	SatRequired      int
	SatRefused       int
	SatCompleted     int
	SatFailed        int
	SatShed          int
	SatAdmission     int
	SatBackpressured int
	SatLossBursts    int
	SatOutages       int
	SatPlacedVehicle uint64
	SatPlacedCloud   uint64
	UplinkSent       uint64
	UplinkDelivered  uint64
	UplinkLost       uint64
	UplinkDropped    uint64
	// Violations holds every invariant breach, deduplicated. Empty is
	// the passing state.
	Violations []string
	// Checks counts invariant sweeps performed.
	Checks int
	// Checksum is an FNV-1a digest over Events followed by FaultLog —
	// bit-for-bit identical across runs with equal configs.
	Checksum uint64
	// Events is the canonical event log of the workload and the
	// invariant sweeps.
	Events []string
}

// byzWindow is one interval during which a worker lied.
type byzWindow struct{ from, to sim.Time }

// soakTask tracks one submission by sequence number (task IDs can
// collide after a stale-checkpoint promotion; sequence numbers cannot).
type soakTask struct {
	task      vcloud.Task
	submitted sim.Time
	fired     int
}

type soak struct {
	cfg SoakConfig
	w   *world.World
	s   *scenario.Scenario
	rng *rand.Rand // "chaos.plan" stream: fault mix and targets

	byzWindows map[vnet.Addr][]byzWindow

	// st is the storage workload state (nil unless cfg.Storage is set).
	st *storageState
	// dg is the DAG workload state (nil unless cfg.DAG is on).
	dg *dagState
	// sat is the congestion workload state (nil unless cfg.Saturate is on).
	sat *satState

	tasks      []*soakTask
	report     *Report
	violations map[string]bool
	// refused counts the current run of refused submissions, which
	// began at refusedFrom.
	refused     int
	refusedFrom sim.Time
	// lastKill gates controller kills: a fresh promotee needs time to
	// gather members and replicate a checkpoint before it can be killed
	// survivably, so kills are spaced by killSpacing. lastSplit gates
	// split-brain isolations for the same reason: back-to-back splits
	// would starve the merged survivor of the checkpoint round it needs
	// before its next standby can promote survivably.
	lastKill  sim.Time
	lastSplit sim.Time
	// The fencing probes' registries (SplitBrain mode, see observe):
	// the controller members accepted each epoch counter from, and the
	// epoch of each application of each task ID's outcome.
	epochClaim map[uint64]vnet.Addr
	applies    map[vcloud.TaskID][]uint64
	// monotonicity watermarks.
	lastSubmitted, lastCompleted, lastFailed, lastFailovers uint64
}

// killSpacing is the minimum gap between controller kills. It covers
// failover detection (FailoverTTL) plus member re-join and at least one
// checkpoint replication to the successor's own standby; killing faster
// than that makes the storm unsurvivable by design, which is a fault in
// the harness rather than the system under test.
const killSpacing = 20 * time.Second

// Soak runs one full soak and returns its report. The report's
// Violations being empty is the pass criterion.
func Soak(cfg SoakConfig) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := world.Build(cfg.spec())
	if err != nil {
		return nil, err
	}
	s := w.Scenario
	sk := &soak{
		cfg:        cfg,
		w:          w,
		s:          s,
		rng:        s.Kernel.NewStream("chaos.plan"),
		byzWindows: make(map[vnet.Addr][]byzWindow),
		report:     &Report{Cloud: w.Stats},
		violations: make(map[string]bool),
		epochClaim: make(map[uint64]vnet.Addr),
		applies:    make(map[vcloud.TaskID][]uint64),
	}
	dcfg := vcloud.DeployConfig{
		Failover:   true,
		Controller: vcloud.ControllerConfig{Depend: &soakPolicy},
	}
	if cfg.SplitBrain {
		dcfg.Controller.Fencing = true
		dcfg.Controller.Trace = sk.observe
	}
	if cfg.Storage != "" {
		if err := sk.setupStorage(); err != nil {
			return nil, err
		}
		// The deployment drives the same backend: expiry, leave and
		// partition-heal merges add fenced repair passes to the storm.
		dcfg.Storage = sk.st.backend
	}
	if err := w.Deploy(world.Cloud{Arch: vcloud.Stationary, Config: dcfg}); err != nil {
		return nil, err
	}
	if cfg.DAG {
		sk.dg = &dagState{rng: s.Kernel.NewStream("chaos.dag")}
	}
	if cfg.Saturate {
		if err := sk.setupSaturate(); err != nil {
			return nil, err
		}
	}
	for _, a := range sk.byzAddrs() {
		sk.byzWindows[a] = []byzWindow{{from: 0, to: -1}} // open
	}
	if err := w.Start(soakWarmup); err != nil {
		return nil, err
	}

	// The storm's clocks, created in this order (it breaks timestamp
	// ties). Departures are their own deterministic churn clock, not a
	// storm roll: every storage soak exercises the loss-and-repair cycle
	// the storage invariants exist to audit, at a controlled rate.
	clocks := []struct {
		every sim.Time
		fn    func()
		on    bool
	}{
		{soakTaskEvery, sk.submitOne, true},
		{soakFaultEvery, sk.injectFault, true},
		{soakCheckEvery, sk.check, true},
		{dagEvery, sk.dagTick, cfg.DAG},
		{saturateEvery, sk.saturateTick, cfg.Saturate},
		{storageEvery, sk.storageTick, cfg.Storage != ""},
		{storageRepairEvery, sk.storageRepair, cfg.Storage != ""},
		{storageDepartEvery, sk.depart, cfg.Storage != ""},
	}
	var storm []*sim.Ticker
	var checkT *sim.Ticker
	for i, c := range clocks {
		if !c.on {
			continue
		}
		t, err := s.Kernel.Every(c.every, c.fn)
		if err != nil {
			return nil, err
		}
		if i == 2 { // the invariant sweep runs on through the drain
			checkT = t
		} else {
			storm = append(storm, t)
		}
	}
	if err := s.RunFor(cfg.Duration); err != nil {
		return nil, err
	}
	// Storm over: stop injecting and submitting, let in-flight work
	// settle, then audit one last time.
	for _, t := range storm {
		t.Stop()
	}
	if err := s.RunFor(soakDrain); err != nil {
		return nil, err
	}
	checkT.Stop()
	sk.check()
	sk.finalize()
	return sk.report, nil
}

// byzAddrs lists the Byzantine workers' addresses in ascending order.
func (sk *soak) byzAddrs() []vnet.Addr {
	addrs := make([]vnet.Addr, 0, len(sk.w.Byzantine))
	for a := range sk.w.Byzantine {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// flipByz turns a Byzantine worker lying or honest through the injector
// and opens or closes its lying window.
func (sk *soak) flipByz(a vnet.Addr, on bool) {
	kind := faults.Honest
	if on {
		kind = faults.Lie
	}
	sk.w.Injector.Apply(faults.Event{Kind: kind, Target: int(a)})
	now := sk.s.Kernel.Now()
	ws := sk.byzWindows[a]
	if on {
		sk.byzWindows[a] = append(ws, byzWindow{from: now, to: -1})
	} else if len(ws) > 0 && ws[len(ws)-1].to < 0 {
		ws[len(ws)-1].to = now
	}
}

// possiblyByz reports whether worker a had any lying interval
// overlapping [t0, t1].
func (sk *soak) possiblyByz(a vnet.Addr, t0, t1 sim.Time) bool {
	for _, w := range sk.byzWindows[a] {
		end := w.to
		if end < 0 {
			end = t1 // still open
		}
		if w.from <= t1 && end >= t0 {
			return true
		}
	}
	return false
}

// submitOne enters one workload task and registers its outcome hooks.
func (sk *soak) submitOne() {
	seq := len(sk.tasks)
	st := &soakTask{
		task:      vcloud.Task{Ops: soakTaskOps, InputBytes: 1000, OutputBytes: 500},
		submitted: sk.s.Kernel.Now(),
	}
	sk.tasks = append(sk.tasks, st)
	err := sk.w.Cloud.SubmitAnywhere(st.task, func(r vcloud.TaskResult) {
		sk.onOutcome(seq, r)
	})
	if err != nil {
		sk.report.Refused++
		sk.event("task %d refused at %s", seq, sk.s.Kernel.Now())
		if sk.refused == 0 {
			sk.refusedFrom = st.submitted
		}
		sk.refused++
		if sk.refused > sk.report.RefusedStreak {
			sk.report.RefusedStreak, sk.report.RefusedFrom = sk.refused, sk.refusedFrom
		}
		return
	}
	sk.refused = 0
	sk.report.Submitted++
}

// onOutcome records a task callback and checks the per-task invariants:
// single firing, and result correctness under the Byzantine bound.
func (sk *soak) onOutcome(seq int, r vcloud.TaskResult) {
	st := sk.tasks[seq]
	st.fired++
	if st.fired > 1 {
		sk.violate("task seq %d reported %d outcomes (completed and failed must be exclusive)", seq, st.fired)
		return
	}
	now := sk.s.Kernel.Now()
	if !r.OK {
		sk.report.Failed++
		sk.event("task %d failed reason=%q retries=%d replicas=%d", seq, r.Reason, r.Retries, r.Replicas)
		return
	}
	sk.report.Completed++
	// The controller assigned the task its ID after submission; workers
	// hashed that ID into their values, so the reference must too.
	ref := st.task
	ref.ID = r.ID
	correct := vcloud.TaskValue(ref)
	// Count possibly-Byzantine voters over the task's lifetime; the
	// over-approximation can only widen this set (see package comment).
	nByz := 0
	for _, v := range r.Voters {
		if sk.possiblyByz(v, st.submitted, now) {
			nByz++
		}
	}
	checked := 2*nByz < len(r.Voters)
	if !checked {
		sk.report.Unchecked++
	}
	if r.Value == correct {
		sk.report.Correct++
	} else {
		// A majority-Byzantine voter set has no guarantee: count, don't flag.
		sk.report.Wrong++
		if checked {
			sk.violate("task seq %d decided wrong value with %d/%d possibly-byzantine voters", seq, nByz, len(r.Voters))
		}
	}
	sk.event("task %d ok value=%d retries=%d replicas=%d voters=%d", seq, r.Value, r.Retries, r.Replicas, len(r.Voters))
}

// injectFault draws one storm event: crash (with auto-recovery),
// partition, loss burst, controller kill, or Byzantine flip — plus, in
// SplitBrain mode, controller isolations that force a rival promotion.
func (sk *soak) injectFault() {
	roll := sk.rng.Float64()
	now := sk.s.Kernel.Now()
	if sk.cfg.SplitBrain && roll < 0.30 {
		sk.splitBrain(now)
		return
	}
	// The kill-member branch carves its slice out of the byz-flip range
	// only when the DAG workload is on, so non-DAG soaks keep their exact
	// storm sequence. It is the world's member-kill drill: radio silence
	// plus agent stop, so the member's running stage work dies with it,
	// no rejoin; decided stage values live on the controller. The
	// drill's half-fleet floor mirrors the controller-kill budget: a
	// storm that consumes the whole fleet tests nothing.
	if sk.cfg.DAG && roll >= 0.92 {
		sk.w.KillMember(sk.rng, 0)
		return
	}
	// The saturation branch likewise carves [0.85, 0.92) out of byz-flip
	// only when the congestion workload is on: uplink loss bursts and
	// brief outages that the bandwidth estimator must ride out.
	if sk.cfg.Saturate && roll >= 0.85 && roll < 0.92 {
		sk.saturateStorm()
		return
	}
	switch {
	case roll < 0.35:
		// Crash a random vehicle's radio for 5–20 s.
		ids := sk.s.VehicleIDs()
		if len(ids) == 0 {
			return
		}
		id := ids[sk.rng.Intn(len(ids))]
		dur := sim.Time(5+sk.rng.Float64()*15) * time.Second
		sk.w.Injector.Apply(faults.Event{Kind: faults.Crash, Target: int(id), Dur: dur})
	case roll < 0.55:
		// Partition a circular region for 5–15 s.
		b := sk.s.Network.Bounds()
		c := geo.Point{
			X: b.Min.X + sk.rng.Float64()*b.Width(),
			Y: b.Min.Y + sk.rng.Float64()*b.Height(),
		}
		radius := 50 + sk.rng.Float64()*150
		dur := sim.Time(5+sk.rng.Float64()*10) * time.Second
		sk.w.Injector.Apply(faults.Event{Kind: faults.Partition, Center: c, Radius: radius, Dur: dur})
	case roll < 0.75:
		// Loss burst 10–40% for 3–10 s.
		p := 0.1 + sk.rng.Float64()*0.3
		dur := sim.Time(3+sk.rng.Float64()*7) * time.Second
		sk.w.Injector.Apply(faults.Event{Kind: faults.Loss, Prob: p, Dur: dur})
	case roll < 0.85:
		// Kill the busiest controller; failover must take over. Keep a
		// kill budget so a long storm cannot consume the whole fleet
		// (every promotion costs one worker).
		ctls := sk.w.Cloud.ActiveControllers()
		if len(ctls) == 0 || len(sk.w.Cloud.Members) <= sk.cfg.Vehicles/2 ||
			(sk.lastKill > 0 && now-sk.lastKill < killSpacing) {
			return
		}
		sk.lastKill = now
		sk.w.Injector.Apply(faults.Event{Kind: faults.KillController, Target: sk.rng.Intn(len(ctls))})
	default:
		// Flip a random Byzantine worker honest, or back.
		addrs := sk.byzAddrs()
		if len(addrs) == 0 {
			return
		}
		a := addrs[sk.rng.Intn(len(addrs))]
		sk.flipByz(a, !sk.w.Byzantine[a].Active())
	}
}

// splitBrain isolates the active controller together with a random
// minority of its members — never its standby — for long enough that
// the standby stops hearing advertisements, promotes, and the cloud
// runs two live controllers until the isolation heals and the epoch
// battle merges them back into one.
func (sk *soak) splitBrain(now sim.Time) {
	if sk.lastSplit > 0 && now-sk.lastSplit < killSpacing {
		return
	}
	ctls := sk.w.Cloud.ActiveControllers()
	if len(ctls) == 0 {
		return
	}
	c := ctls[sk.rng.Intn(len(ctls))]
	standby := c.StandbyAddr()
	if !c.Fenced() || standby < 0 {
		return // no standby: isolation would only make the cloud headless
	}
	var pool []int
	for _, a := range c.Members() {
		if a != standby && a != c.Addr() {
			pool = append(pool, int(a))
		}
	}
	sk.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := 0
	if len(pool) > 0 {
		n = sk.rng.Intn(len(pool)/2 + 1)
	}
	dur := sim.Time(10+sk.rng.Float64()*10) * time.Second
	sk.lastSplit = now
	sk.w.Injector.Apply(faults.Event{Kind: faults.Isolate, Target: int(c.Addr()), Keep: pool[:n], Dur: dur})
}

// observe is the split-brain soak's trace sink, and its two fencing
// probes. Every fenced follow reports (controller, epoch): two distinct
// controllers accepted at the same epoch counter is the split-brain
// safety breach fencing exists to prevent. Every applied outcome
// reports its task ID: a second application of one ID — on the same
// controller, a rival, or a later epoch's voting round — is a duplicated
// outcome the (task, epoch) ledger should have caught.
func (sk *soak) observe(ev trace.Event) {
	switch ev.Kind {
	case trace.Accept:
		ctl, e := vnet.Addr(ev.A), vcloud.Epoch{Counter: ev.Epoch, Claimant: vnet.Addr(ev.B)}
		sk.report.Epochs = max(sk.report.Epochs, e.Round())
		if prev, ok := sk.epochClaim[e.Counter]; ok && prev != ctl {
			sk.violate("epoch %v accepted from two controllers (%d then %d): at most one controller may be accepted per epoch",
				e, prev, ctl)
		} else {
			sk.epochClaim[e.Counter] = ctl
		}
	case trace.Apply:
		id := vcloud.TaskID(ev.Task)
		sk.applies[id] = append(sk.applies[id], ev.Epoch)
		if n := len(sk.applies[id]); n > 1 {
			// An epoch counter encodes its claimant's address in the low bits,
			// so naming both epochs identifies both appliers.
			sk.violate("task %d applied %d times (first epoch %d, now epoch %d): no task outcome may be applied twice across epochs",
				id, n, sk.applies[id][0], ev.Epoch)
		}
	default: // no fencing invariant reads the other kinds
	}
}

// check is one invariant sweep: controller self-audits plus counter
// monotonicity and accounting.
func (sk *soak) check() {
	sk.report.Checks++
	if sk.st != nil {
		sk.checkStorage()
	}
	if sk.sat != nil {
		sk.checkSaturate()
	}
	for _, c := range sk.w.Cloud.Controllers {
		if c.Stopped() {
			continue // a crashed controller's task table is dead, not stuck
		}
		for _, v := range c.InvariantViolations() {
			sk.violate("controller %d: %s", c.Addr(), v)
		}
	}
	sub, comp, fail := sk.w.Stats.Submitted.Value(), sk.w.Stats.Completed.Value(), sk.w.Stats.Failed.Value()
	fo := sk.w.Stats.Failovers.Value()
	// Accounting uses the soak's own callback counts, not the global
	// stats: a stale-checkpoint promotion may re-execute a task its dead
	// predecessor already finished, so the per-controller counters are
	// at-least-once and can legitimately exceed submissions. The
	// callback path is exactly-once (enforced by the fired>1 check).
	if sk.report.Completed+sk.report.Failed > sk.report.Submitted {
		sk.violate("accounting: completed %d + failed %d > submitted %d",
			sk.report.Completed, sk.report.Failed, sk.report.Submitted)
	}
	if sk.dg != nil && sk.report.JobsCompleted+sk.report.JobsFailed > sk.report.JobsSubmitted {
		sk.violate("accounting: jobs completed %d + failed %d > submitted %d",
			sk.report.JobsCompleted, sk.report.JobsFailed, sk.report.JobsSubmitted)
	}
	if r := sk.report; sk.sat != nil && r.SatCompleted+r.SatFailed+r.SatShed+r.SatAdmission+r.SatBackpressured > r.SatSubmitted {
		sk.violate("accounting: congestion completed %d + failed %d + shed %d + admission %d + backpressured %d > submitted %d",
			r.SatCompleted, r.SatFailed, r.SatShed, r.SatAdmission, r.SatBackpressured, r.SatSubmitted)
	}
	if sub < sk.lastSubmitted || comp < sk.lastCompleted || fail < sk.lastFailed || fo < sk.lastFailovers {
		sk.violate("monotonicity: counters went backwards (submitted %d<%d or completed %d<%d or failed %d<%d or failovers %d<%d)",
			sub, sk.lastSubmitted, comp, sk.lastCompleted, fail, sk.lastFailed, fo, sk.lastFailovers)
	}
	sk.lastSubmitted, sk.lastCompleted, sk.lastFailed, sk.lastFailovers = sub, comp, fail, fo
}

// violate records a deduplicated invariant breach in the event log.
func (sk *soak) violate(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if sk.violations[msg] {
		return
	}
	sk.violations[msg] = true
	sk.report.Violations = append(sk.report.Violations, msg)
	sk.event("VIOLATION %s", msg)
}

// event appends one line to the canonical (checksummed) event log.
func (sk *soak) event(format string, args ...interface{}) {
	sk.report.Events = append(sk.report.Events, fmt.Sprintf(format, args...))
}

// finalize computes the checksum and closing counters; the storm's
// counters are read off the injector's log.
func (sk *soak) finalize() {
	r := sk.report
	r.FaultLog = sk.w.Injector.Log()
	kinds := make(map[faults.Kind]int)
	for _, line := range r.FaultLog {
		if !strings.HasPrefix(line, "#") { // '#' lines are heals
			r.FaultsInjected++
			f := strings.Fields(line) // at kind [target] [dur]
			k := faults.Kind(f[1])
			kinds[k]++
			if k == faults.Crash && len(f) == 3 {
				r.Departures++ // the departure drill's crashes are the only untimed ones
			}
		}
	}
	r.SplitBrains, r.MemberKills = kinds[faults.Isolate], kinds[faults.KillMember]
	r.SatLossBursts, r.SatOutages = kinds[faults.UplinkLoss], kinds[faults.UplinkDown]
	r.RefusedFor = sim.Time(r.RefusedStreak) * soakTaskEvery
	for _, c := range sk.w.Cloud.ActiveControllers() {
		if c.NumMembers() == 0 {
			r.Memberless++
		}
	}
	if sk.st != nil {
		r.StorageRepaired = sk.st.backend.Stats().ReReplicas.Value()
	}
	if sat := sk.sat; sat != nil {
		r.SatPlacedVehicle, r.SatPlacedCloud = sat.gov.Placed(0), sat.gov.Placed(1)
		r.UplinkSent, r.UplinkDelivered, r.UplinkLost, r.UplinkDropped = sat.uplink.Counters()
	}
	h := fnv.New64a()
	for _, line := range slices.Concat(r.Events, r.FaultLog) {
		io.WriteString(h, line+"\n")
	}
	r.Checksum = h.Sum64()
}
