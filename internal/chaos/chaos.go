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
// In SplitBrain mode the storm additionally isolates the active
// controller (standby always left outside) so the cloud splits into two
// live controllers, and two fencing invariants arm:
//
//   - at most one controller is accepted by members per epoch counter;
//   - no task outcome is applied twice across epochs — not by rival
//     controllers, not by a promotee replaying its checkpoint, not by a
//     later voting round.
//
// In Storage mode a replicated or erasure-coded data service soaks
// alongside the task workload (see storage.go): the storm gains a
// permanent-departure branch, and two storage invariants arm — no
// acknowledged write is lost while a quorum of its placed replicas
// survives, and a session client never reads backwards.
//
// "Possibly Byzantine" is a deliberate over-approximation: a voter
// counts as Byzantine for a task if any of its lying intervals
// overlapped the task's lifetime. Over-counting can only skip a check,
// never raise a false alarm, so a reported violation is always real.
//
// Every random draw — fault mix, targets, timings, Byzantine flips —
// comes from named kernel streams, so a soak is a pure function of its
// config: the FNV-1a checksum over the canonical event log is
// bit-for-bit reproducible under the same seed, and any violation
// replays exactly.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"vcloud/internal/attack"
	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// SoakConfig tunes a soak run. Zero Vehicles and Duration take defaults.
type SoakConfig struct {
	// Seed drives everything; equal seeds replay equal soaks.
	Seed int64
	// Vehicles is the parked fleet size. Default 20.
	Vehicles int
	// ByzFraction of members lie about results (WrongProb 1 while
	// active; "byz-flip" faults toggle them). Zero soaks honest workers.
	ByzFraction float64
	// Duration is the soaked horizon after warm-up. Default 10 min.
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
	// loss bursts and brief outages, and three saturation invariants —
	// no tier queue grows past its bound, shed work is only ever
	// optional, and the bandwidth estimate stays within the channel's
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

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Vehicles == 0 {
		c.Vehicles = 20
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	return c
}

// Validate checks config sanity.
func (c SoakConfig) Validate() error {
	// The range check is negated so a NaN fraction fails it.
	if c.Vehicles < 0 || !(c.ByzFraction >= 0 && c.ByzFraction <= 1) {
		return fmt.Errorf("chaos: vehicles must be >= 0 and byz fraction in [0,1]")
	}
	if c.Duration < 0 {
		return fmt.Errorf("chaos: duration must be >= 0")
	}
	switch c.Storage {
	case "", "replicated", "ec":
	default:
		return fmt.Errorf(`chaos: storage must be "", "replicated" or "ec", got %q`, c.Storage)
	}
	return nil
}

// Report is the outcome of a soak run.
type Report struct {
	// Submitted counts tasks entered; Refused counts submissions no
	// active controller would take (cloud headless mid-failover).
	Submitted int
	Refused   int
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
	// FaultsInjected counts storm events; FaultLog holds one line each.
	FaultsInjected int
	FaultLog       []string
	// Failovers is the controller promotions the run saw.
	Failovers uint64
	// Split-brain counters (meaningful when SplitBrain is on).
	// SplitBrains counts controller-isolation storms injected; Epochs is
	// the highest epoch round any member accepted; the rest mirror the
	// fencing counters in vcloud.Stats at the end of the run.
	SplitBrains   int
	Epochs        uint64
	Abdications   uint64
	Merges        uint64
	Adopted       uint64
	Deduped       uint64
	StaleRejected uint64
	// Storage workload counters (meaningful when Storage is set).
	// StorageLost counts acked writes that became unreconstructible
	// below the survivor threshold — the regime the service is allowed
	// to lose data in; a loss at or above the threshold is a violation
	// instead. Departures counts permanent departures injected.
	StorageWrites   int
	StorageAcked    int
	StorageReads    int
	StorageReadsOK  int
	StorageLost     int
	StorageRepaired uint64
	Departures      int
	// DAG workload counters (meaningful when DAG is on). JobsResumed
	// counts jobs a failover successor picked up from a checkpoint (their
	// callbacks are lost, so completed+failed may undercount submitted by
	// exactly the resumed jobs still finishing elsewhere). MemberKills
	// counts kill-member storm events: process deaths, on top of the
	// radio-only crash branch.
	JobsSubmitted int
	JobsRefused   int
	JobsCompleted int
	JobsPartial   int
	JobsFailed    int
	JobsResumed   uint64
	StageRetries  uint64
	StageRelays   uint64
	StageHandoffs uint64
	MemberKills   int
	// Congestion workload counters (meaningful when Saturate is on).
	// SatSubmitted splits into SatRequired + optional; SatCompleted
	// counts deadline-met completions of either kind. SatShed /
	// SatAdmission / SatBackpressured are the governor's structured
	// rejections; SatPlacedVehicle / SatPlacedCloud are where admitted
	// work landed. The Uplink* quadruple is the shared channel's final
	// counter state — Lost is stochastic channel loss, Dropped is
	// outage windows, FIFO tail drops and shed flights (the split the
	// vcloudsim summary prints).
	SatSubmitted     int
	SatRequired      int
	SatCompleted     int
	SatFailed        int
	SatShed          int
	SatAdmission     int
	SatBackpressured int
	SatLossBursts    int
	SatOutages       int
	SatPlacedVehicle uint64
	SatPlacedCloud   uint64
	TierSwitches     uint64
	UplinkSent       uint64
	UplinkDelivered  uint64
	UplinkLost       uint64
	UplinkDropped    uint64
	// Violations holds every invariant breach, deduplicated. Empty is
	// the passing state.
	Violations []string
	// Checks counts invariant sweeps performed.
	Checks int
	// Checksum is an FNV-1a digest over the canonical event log —
	// bit-for-bit identical across runs with equal configs.
	Checksum uint64
	// Events is the canonical event log the checksum covers.
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
	cfg   SoakConfig
	s     *scenario.Scenario
	d     *vcloud.Deployment
	stats *vcloud.Stats
	inj   *faults.Injector
	rng   *rand.Rand // "chaos.plan" stream: fault mix and targets

	byz        map[vnet.Addr]*attack.ByzantineWorker
	byzWindows map[vnet.Addr][]byzWindow

	// st is the storage workload state (nil unless cfg.Storage is set);
	// rsu is the coordinator vantage its reachability view probes from.
	st  *storageState
	rsu vnet.Addr
	// dg is the DAG workload state (nil unless cfg.DAG is on).
	dg *dagState
	// sat is the congestion workload state (nil unless cfg.Saturate is
	// on).
	sat *satState

	tasks      []*soakTask
	report     *Report
	violations map[string]bool
	// lastKill gates controller kills: a fresh promotee needs time to
	// gather members and replicate a checkpoint before it can be killed
	// survivably, so kills are spaced by killSpacing. lastSplit gates
	// split-brain isolations for the same reason: back-to-back splits
	// would starve the merged survivor of the checkpoint round it needs
	// before its next standby can promote survivably.
	lastKill  sim.Time
	lastSplit sim.Time
	// Fencing invariant registries (SplitBrain mode). epochClaim maps an
	// epoch counter to the controller members accepted it from; a second
	// claimant at the same counter is a split-brain safety breach.
	// applies counts outcome applications per task ID; two applications
	// of one ID — across epochs, controllers, or voting rounds — is a
	// duplicated outcome the fencing ledger should have deduplicated.
	epochClaim map[uint64]vnet.Addr
	applies    map[vcloud.TaskID]applyRecord
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
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: 200, AisleGapM: 40})
	if err != nil {
		return nil, err
	}
	s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: cfg.Vehicles, Parked: true})
	if err != nil {
		return nil, err
	}
	if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
		return nil, err
	}
	sk := &soak{
		cfg:        cfg,
		s:          s,
		rng:        s.Kernel.NewStream("chaos.plan"),
		byz:        make(map[vnet.Addr]*attack.ByzantineWorker),
		byzWindows: make(map[vnet.Addr][]byzWindow),
		report:     &Report{},
		violations: make(map[string]bool),
		epochClaim: make(map[uint64]vnet.Addr),
		applies:    make(map[vcloud.TaskID]applyRecord),
	}
	stats := &vcloud.Stats{}
	dcfg := vcloud.DeployConfig{
		Failover:   true,
		Controller: vcloud.ControllerConfig{Depend: &soakPolicy},
	}
	if cfg.SplitBrain {
		dcfg.Fencing = true
		dcfg.OnApply = sk.onApply
		dcfg.OnAccept = sk.onAccept
	}
	if cfg.Storage != "" {
		if err := sk.setupStorage(); err != nil {
			return nil, err
		}
		// The deployment drives the same backend: expiry, leave and
		// partition-heal merges add fenced repair passes to the storm.
		dcfg.Storage = sk.st.backend
	}
	d, err := vcloud.Deploy(s, vcloud.Stationary, dcfg, stats)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(s)
	if err != nil {
		return nil, err
	}
	inj.OnControllerKill(func(idx int) {
		ctls := d.ActiveControllers()
		if idx >= 0 && idx < len(ctls) {
			ctls[idx].Crash()
		}
	})
	inj.OnMemberKill(func(id int) {
		if m, ok := d.Members[mobility.VehicleID(id)]; ok {
			m.Stop()
			delete(d.Members, mobility.VehicleID(id))
		}
	})
	sk.d, sk.stats, sk.inj = d, stats, inj
	sk.rsu = d.Controllers[0].Addr()
	if cfg.DAG {
		sk.setupDAG()
	}
	if cfg.Saturate {
		if err := sk.setupSaturate(); err != nil {
			return nil, err
		}
	}
	if err := sk.byzantify(); err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	if err := s.RunFor(soakWarmup); err != nil {
		return nil, err
	}

	taskT, err := s.Kernel.Every(soakTaskEvery, sk.submitOne)
	if err != nil {
		return nil, err
	}
	faultT, err := s.Kernel.Every(soakFaultEvery, sk.injectFault)
	if err != nil {
		return nil, err
	}
	checkT, err := s.Kernel.Every(soakCheckEvery, sk.check)
	if err != nil {
		return nil, err
	}
	var dagT *sim.Ticker
	if cfg.DAG {
		if dagT, err = s.Kernel.Every(dagEvery, sk.dagTick); err != nil {
			return nil, err
		}
	}
	var satT *sim.Ticker
	if cfg.Saturate {
		if satT, err = s.Kernel.Every(saturateEvery, sk.saturateTick); err != nil {
			return nil, err
		}
	}
	var storeT, repairT, departT *sim.Ticker
	if cfg.Storage != "" {
		if storeT, err = s.Kernel.Every(storageEvery, sk.storageTick); err != nil {
			return nil, err
		}
		if repairT, err = s.Kernel.Every(storageRepairEvery, sk.storageRepair); err != nil {
			return nil, err
		}
		// Departures are their own deterministic churn clock, not a storm
		// roll: every soak exercises the loss-and-repair cycle the storage
		// invariants exist to audit, at a controlled rate.
		if departT, err = s.Kernel.Every(storageDepartEvery, func() { sk.depart(s.Kernel.Now()) }); err != nil {
			return nil, err
		}
	}
	if err := s.RunFor(cfg.Duration); err != nil {
		return nil, err
	}
	// Storm over: stop injecting and submitting, let in-flight work
	// settle, then audit one last time.
	taskT.Stop()
	faultT.Stop()
	if dagT != nil {
		dagT.Stop()
	}
	if satT != nil {
		satT.Stop()
	}
	if storeT != nil {
		storeT.Stop()
		repairT.Stop()
		departT.Stop()
	}
	if err := s.RunFor(soakDrain); err != nil {
		return nil, err
	}
	checkT.Stop()
	sk.check()
	sk.finalize()
	return sk.report, nil
}

// byzantify turns the configured fraction of members Byzantine, lowest
// vehicle IDs first (deterministic; which IDs are low is arbitrary with
// respect to the parking layout).
func (sk *soak) byzantify() error {
	ids := make([]mobility.VehicleID, 0, len(sk.d.Members))
	for id := range sk.d.Members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := int(math.Round(sk.cfg.ByzFraction * float64(len(ids))))
	for _, id := range ids[:n] {
		m := sk.d.Members[id]
		b, err := attack.Byzantify(m, 1, nil)
		if err != nil {
			return err
		}
		sk.byz[m.Addr()] = b
		sk.byzWindows[m.Addr()] = []byzWindow{{from: 0, to: -1}} // open
	}
	return nil
}

// setByz flips a worker's lying state, closing or opening its window.
func (sk *soak) setByz(a vnet.Addr, on bool) {
	b := sk.byz[a]
	if b == nil || b.Active() == on {
		return
	}
	b.SetActive(on)
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
	err := sk.d.SubmitAnywhere(st.task, func(r vcloud.TaskResult) {
		sk.onOutcome(seq, r)
	})
	if err != nil {
		sk.report.Refused++
		sk.event("task %d refused at %s", seq, sk.s.Kernel.Now())
		return
	}
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
	if 2*nByz < len(r.Voters) {
		if r.Value == correct {
			sk.report.Correct++
		} else {
			sk.report.Wrong++
			sk.violate("task seq %d decided wrong value with %d/%d possibly-byzantine voters", seq, nByz, len(r.Voters))
		}
	} else {
		sk.report.Unchecked++
		if r.Value == correct {
			sk.report.Correct++
		} else {
			sk.report.Wrong++ // majority-Byzantine voter set: no guarantee, count but don't flag
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
	// storm sequence (and checksums).
	if sk.cfg.DAG && roll >= 0.92 {
		sk.killMember(now)
		return
	}
	// The saturation branch likewise carves [0.85, 0.92) out of byz-flip
	// only when the congestion workload is on: uplink loss bursts and
	// brief outages that the bandwidth estimator must ride out.
	if sk.cfg.Saturate && roll >= 0.85 && roll < 0.92 {
		sk.saturateStorm(now)
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
		sk.inj.CrashNode(vnet.Addr(id))
		sk.s.Kernel.After(dur, func() { sk.inj.RecoverNode(vnet.Addr(id)) })
		sk.fault("%s crash vehicle %d for %s", now, id, dur)
	case roll < 0.55:
		// Partition a circular region for 5–15 s.
		b := sk.s.Network.Bounds()
		c := geo.Point{
			X: b.Min.X + sk.rng.Float64()*b.Width(),
			Y: b.Min.Y + sk.rng.Float64()*b.Height(),
		}
		radius := 50 + sk.rng.Float64()*150
		dur := sim.Time(5+sk.rng.Float64()*10) * time.Second
		heal := sk.inj.StartPartition(c, radius)
		sk.s.Kernel.After(dur, heal)
		sk.fault("%s partition r=%.0fm at %.0f,%.0f for %s", now, radius, c.X, c.Y, dur)
	case roll < 0.75:
		// Loss burst 10–40% for 3–10 s.
		p := 0.1 + sk.rng.Float64()*0.3
		dur := sim.Time(3+sk.rng.Float64()*7) * time.Second
		sk.inj.SetLoss(p)
		sk.s.Kernel.After(dur, func() { sk.inj.SetLoss(0) })
		sk.fault("%s loss p=%.2f for %s", now, p, dur)
	case roll < 0.85:
		// Kill the busiest controller; failover must take over. Keep a
		// kill budget so a long storm cannot consume the whole fleet
		// (every promotion costs one worker).
		ctls := sk.d.ActiveControllers()
		if len(ctls) == 0 || len(sk.d.Members) <= sk.cfg.Vehicles/2 ||
			(sk.lastKill > 0 && now-sk.lastKill < killSpacing) {
			return
		}
		sk.lastKill = now
		ctls[sk.rng.Intn(len(ctls))].Crash()
		sk.fault("%s kill-controller", now)
	default:
		// Flip a random Byzantine worker honest, or back.
		if len(sk.byz) == 0 {
			return
		}
		addrs := make([]vnet.Addr, 0, len(sk.byz))
		for a := range sk.byz {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		a := addrs[sk.rng.Intn(len(addrs))]
		sk.setByz(a, !sk.byz[a].Active())
		sk.fault("%s byz-flip worker %d -> %v", now, a, sk.byz[a].Active())
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
	ctls := sk.d.ActiveControllers()
	if len(ctls) == 0 {
		return
	}
	c := ctls[sk.rng.Intn(len(ctls))]
	standby := c.StandbyAddr()
	if !c.Fenced() || standby < 0 {
		return // no standby: isolation would only make the cloud headless
	}
	var pool []radio.NodeID
	for _, a := range c.Members() {
		if a != standby && a != c.Addr() {
			pool = append(pool, radio.NodeID(a))
		}
	}
	sk.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	n := 0
	if len(pool) > 0 {
		n = sk.rng.Intn(len(pool)/2 + 1)
	}
	dur := sim.Time(10+sk.rng.Float64()*10) * time.Second
	heal := sk.inj.StartIsolation(radio.NodeID(c.Addr()), pool[:n])
	sk.s.Kernel.After(dur, heal)
	sk.lastSplit = now
	sk.report.SplitBrains++
	sk.fault("%s split-brain isolate controller %d with %d kept members for %s", now, c.Addr(), n, dur)
}

// onAccept is the member-side fencing probe: every fenced follow
// reports (controller, epoch). Two distinct controllers accepted at the
// same epoch counter is the split-brain safety breach fencing exists to
// prevent.
func (sk *soak) onAccept(ctl vnet.Addr, e vcloud.Epoch) {
	if r := e.Round(); r > sk.report.Epochs {
		sk.report.Epochs = r
	}
	if prev, ok := sk.epochClaim[e.Counter]; ok && prev != ctl {
		sk.violate("epoch %v accepted from two controllers (%d then %d): at most one controller may be accepted per epoch",
			e, prev, ctl)
		return
	}
	sk.epochClaim[e.Counter] = ctl
}

// onApply is the controller-side fencing probe: each application of a
// task outcome reports its ID. A second application of the same ID —
// on the same controller, a rival, or a later epoch's voting round —
// is a duplicated outcome the (task, epoch) ledger should have caught.
func (sk *soak) onApply(id vcloud.TaskID, epoch uint64, ok bool) {
	ar := sk.applies[id]
	ar.count++
	if ar.count == 1 {
		ar.epoch = epoch
	}
	sk.applies[id] = ar
	if ar.count > 1 {
		// An epoch counter encodes its claimant's address in the low bits,
		// so naming both epochs identifies both appliers.
		sk.violate("task %d applied %d times (first epoch %d, now epoch %d): no task outcome may be applied twice across epochs",
			id, ar.count, ar.epoch, epoch)
	}
}

// applyRecord remembers how often — and first under which epoch — a
// task's outcome was applied.
type applyRecord struct {
	count int
	epoch uint64
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
	for _, c := range sk.d.Controllers {
		if c.Stopped() {
			continue // a crashed controller's task table is dead, not stuck
		}
		for _, v := range c.InvariantViolations() {
			sk.violate("controller %d: %s", c.Addr(), v)
		}
	}
	sub, comp, fail := sk.stats.Submitted.Value(), sk.stats.Completed.Value(), sk.stats.Failed.Value()
	fo := sk.stats.Failovers.Value()
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

// fault logs one storm event to both the fault log and the event log.
func (sk *soak) fault(format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	sk.report.FaultsInjected++
	sk.report.FaultLog = append(sk.report.FaultLog, line)
	sk.event("fault %s", line)
}

// event appends one line to the canonical (checksummed) event log.
func (sk *soak) event(format string, args ...interface{}) {
	sk.report.Events = append(sk.report.Events, fmt.Sprintf(format, args...))
}

// finalize computes the checksum and closing counters.
func (sk *soak) finalize() {
	sk.report.Failovers = sk.stats.Failovers.Value()
	sk.report.Abdications = sk.stats.Abdications.Value()
	sk.report.Merges = sk.stats.Merges.Value()
	sk.report.Adopted = sk.stats.Adopted.Value()
	sk.report.Deduped = sk.stats.Deduped.Value()
	sk.report.StaleRejected = sk.stats.StaleRejected.Value()
	if sk.st != nil {
		sk.report.StorageRepaired = sk.st.backend.Stats().ReReplicas.Value()
	}
	if sk.dg != nil {
		sk.report.JobsResumed = sk.stats.JobsResumed.Value()
		sk.report.StageRetries = sk.stats.StageRetries.Value()
		sk.report.StageRelays = sk.stats.StageRelays.Value()
		sk.report.StageHandoffs = sk.stats.StageHandoffs.Value()
	}
	if sk.sat != nil {
		sk.finalizeSaturate()
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, line := range sk.report.Events {
		for i := 0; i < len(line); i++ {
			h ^= uint64(line[i])
			h *= prime64
		}
		h ^= '\n'
		h *= prime64
	}
	sk.report.Checksum = h
}
