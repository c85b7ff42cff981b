// Package vcloud is a vehicular-cloud simulation and orchestration
// library: a from-scratch Go reproduction of the system envisioned in
//
//	Kang, Lin, Bertino, Tonguz. "From Autonomous Vehicles to Vehicular
//	Clouds: Challenges of Management, Security and Dependability."
//	IEEE ICDCS 2019.
//
// It provides, on top of a deterministic discrete-event kernel:
//
//   - road networks, IDM vehicle mobility and a lossy DSRC-like radio;
//   - VANET clustering (lowest-ID, mobility-similarity, multi-hop
//     passive) and routing (MoZo, greedy-geographic, AODV, epidemic);
//   - the three vehicular-cloud architectures of the paper's Fig. 4
//     (stationary, infrastructure-based, dynamic) with dwell-aware task
//     scheduling, task handover and file replication;
//   - privacy-preserving security: pseudonym/group/hybrid
//     authentication over a TA-rooted PKI, attribute-based access
//     control with sticky data–policy packages, and real-time message
//     trustworthiness validation;
//   - reliability-aware multi-stage DAG jobs: criticality-driven
//     selective replication, stage-output pipelining with fenced
//     handoff, an ETSI-MEC RSU edge tier and graceful degradation;
//   - congestion-aware offloading: a delay-gradient (GCC-style)
//     bandwidth estimator over a contended FIFO uplink, and a placement
//     governor with deadline admission control, bounded queues,
//     optional-first load shedding and live per-tier estimates;
//   - a geo-sharded parallel event kernel: the world partitions into a
//     fixed grid of geographic shards, each advancing its own kernel,
//     synchronized with conservative lookahead windows — bit-for-bit
//     identical model output at any shard count (internal/sim/shard.go,
//     internal/shardworld);
//   - the adversary models of the paper's §III threat list, and the
//     E1–E17 experiment suite that operationalizes every figure and
//     claim (see DESIGN.md and EXPERIMENTS.md).
//
// This root package is the public facade: it re-exports the library's
// main types under one import and offers high-level constructors for
// the common scenarios. The examples/ directory shows complete
// programs; internal packages remain importable inside this module for
// advanced composition.
package vcloud

import (
	"fmt"
	mrand "math/rand"
	"time"

	"vcloud/internal/auth"
	"vcloud/internal/chaos"
	"vcloud/internal/cluster"
	"vcloud/internal/experiments"
	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/shardworld"
	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// Core simulation types.
type (
	// Scenario is a wired simulation: kernel, radio, mobility and one
	// network node per vehicle.
	Scenario = scenario.Scenario
	// ScenarioSpec configures scenario construction.
	ScenarioSpec = scenario.Spec
	// Point is a 2-D position in meters.
	Point = geo.Point
	// Duration is virtual simulation time.
	Duration = sim.Time
	// Node is a network endpoint in the simulated VANET (vehicles and
	// RSUs each own one; Scenario.AddRSU returns the RSU's node).
	Node = vnet.Node
	// VehicleID identifies a vehicle.
	VehicleID = mobility.VehicleID
	// Profile describes a vehicle's driving and equipment profile.
	Profile = mobility.Profile
)

// Vehicular-cloud types.
type (
	// Cloud is a deployed vehicular cloud (controllers + members).
	Cloud = vcloud.Deployment
	// CloudConfig tunes a deployment.
	CloudConfig = vcloud.DeployConfig
	// CloudStats aggregates task outcomes.
	CloudStats = vcloud.Stats
	// Task is a unit of offloadable computation.
	Task = vcloud.Task
	// TaskResult reports a finished task.
	TaskResult = vcloud.TaskResult
	// Architecture selects stationary / infrastructure / dynamic.
	Architecture = vcloud.Architecture
	// DependabilityPolicy configures redundant execution: replica count,
	// majority voting, backoff retries and trust-gated placement.
	DependabilityPolicy = vcloud.DependabilityPolicy
)

// The three Fig. 4 architectures.
const (
	Stationary     = vcloud.Stationary
	Infrastructure = vcloud.Infrastructure
	Dynamic        = vcloud.Dynamic
)

// Multi-stage DAG job types (reliability-aware execution; see
// internal/vcloud/dag.go and the DESIGN.md "Dependable DAG execution"
// section).
type (
	// JobSpec is a multi-stage job: a DAG of stages with a replica
	// budget, per-stage retry policy, optional deadline and the
	// whole-job-restart strawman toggle.
	JobSpec = vcloud.JobSpec
	// StageSpec is one stage of a job DAG.
	StageSpec = vcloud.StageSpec
	// JobID identifies a submitted job.
	JobID = vcloud.JobID
	// JobResult reports a finished job with per-stage outcomes.
	JobResult = vcloud.JobResult
	// StageOutcome records one stage's final status and holders.
	StageOutcome = vcloud.StageOutcome
	// StageStatus is a stage's lifecycle state.
	StageStatus = vcloud.StageStatus
	// FailReason is the structured cause attached to failed tasks and
	// jobs (deadline, retries-exhausted, no-eligible-member, …).
	FailReason = vcloud.FailReason
	// EdgeConfig sizes an RSU-hosted ETSI-MEC edge server.
	EdgeConfig = vcloud.EdgeConfig
	// EdgeServer is a fixed-infrastructure cloud member hosted on an RSU.
	EdgeServer = vcloud.EdgeServer
)

// Stage lifecycle states.
const (
	StageWaiting   = vcloud.StageWaiting
	StageRunning   = vcloud.StageRunning
	StageDone      = vcloud.StageDone
	StageAbandoned = vcloud.StageAbandoned
	StageFailed    = vcloud.StageFailed
)

// Structured failure reasons.
const (
	ReasonNone              = vcloud.ReasonNone
	ReasonRetriesExhausted  = vcloud.ReasonRetriesExhausted
	ReasonDeadline          = vcloud.ReasonDeadline
	ReasonNoEligibleMember  = vcloud.ReasonNoEligibleMember
	ReasonNoQuorum          = vcloud.ReasonNoQuorum
	ReasonControllerStopped = vcloud.ReasonControllerStopped
	ReasonUplinkDown        = vcloud.ReasonUplinkDown
	ReasonStageFailed       = vcloud.ReasonStageFailed
	ReasonAdmission         = vcloud.ReasonAdmission
	ReasonBackpressure      = vcloud.ReasonBackpressure
	ReasonShed              = vcloud.ReasonShed
)

// NewEdgeServer attaches an ETSI-MEC edge server to an RSU node; it
// joins the surrounding cloud as a churn-proof, dwell-exempt member.
func NewEdgeServer(node *Node, cfg EdgeConfig, stats *CloudStats) (*EdgeServer, error) {
	return vcloud.NewEdgeServer(node, cfg, stats)
}

// Shared-channel radio types (the congestion-controlled uplink the
// placement governor instruments; see internal/radio).
type (
	// Uplink is the point-to-cloud link shared by all vehicles under
	// coverage: with Contended set, transfers serialize at the link's
	// bandwidth, queue FIFO behind its backlog and tail-drop past
	// MaxQueueDelay — the channel a congestion controller can observe.
	Uplink = radio.Uplink
	// UplinkParams configures an uplink.
	UplinkParams = radio.UplinkParams
	// UplinkSender is one traffic source's handle on a shared uplink;
	// exchanges routed through it feed a GCC-style delay-gradient
	// bandwidth estimator.
	UplinkSender = radio.Sender
	// BWEConfig tunes a bandwidth estimator.
	BWEConfig = radio.BWEConfig
	// BWEstimator is the delay-gradient (trendline + adaptive threshold
	// + AIMD) bandwidth estimator.
	BWEstimator = radio.BWEstimator
)

// NewUplink creates a healthy uplink on the scenario's kernel.
func NewUplink(s *Scenario, params UplinkParams) (*Uplink, error) {
	return radio.NewUplink(s.Kernel, params)
}

// DefaultUplinkParams returns LTE-flavoured uplink defaults.
func DefaultUplinkParams() UplinkParams { return radio.DefaultUplinkParams() }

// Congestion-aware offload placement (the §III resource-management
// challenge under a shared, lossy uplink; see internal/radio/gcc.go for
// the delay-gradient bandwidth estimator and internal/vcloud/governor.go
// for the placement governor).
type (
	// Governor is the deadline-aware placement governor: it routes each
	// task to the execution tier with the best modeled completion time,
	// admission-rejects work that cannot make its deadline anywhere,
	// bounds per-tier queues, and sheds optional work first under
	// overload.
	Governor = vcloud.Governor
	// GovernorConfig wires a governor's tiers and knobs.
	GovernorConfig = vcloud.GovernorConfig
	// GovernorTier describes one execution tier: its backend, nameplate
	// capacity model, and (optionally) the live congestion-feedback
	// sender riding its uplink.
	GovernorTier = vcloud.GovernorTier
	// ExecTier identifies an execution tier (vehicle / RSU edge / cloud).
	ExecTier = vcloud.Tier
	// TierEstimate is one tier's live capacity estimate as published on
	// the epoch-fenced estimate feed.
	TierEstimate = vcloud.TierEstimate
	// EstimateFeed periodically publishes a tier's estimates as fenced
	// cluster messages (see EstimateSource).
	EstimateFeed = vcloud.EstimateFeed
	// EstimateSource is anything that can be polled for a TierEstimate.
	EstimateSource = vcloud.EstimateSource
	// CloudBackend is the governor's execution-tier contract.
	CloudBackend = vcloud.Backend
	// RemoteCloud executes tasks across an uplink on a remote
	// datacenter.
	RemoteCloud = vcloud.RemoteCloud
	// DeploymentBackend adapts a vehicular-cloud Deployment to the
	// governor's backend contract.
	DeploymentBackend = vcloud.DeploymentBackend
)

// The governor's execution tiers.
const (
	TierVehicle = vcloud.TierVehicle
	TierEdge    = vcloud.TierEdge
	TierCloud   = vcloud.TierCloud
	NumTiers    = vcloud.NumTiers
)

// NewGovernor builds a placement governor over the given tiers. Tiers
// with a Sender get live delay-gradient bandwidth, loss and queue-delay
// estimates; tiers without one are priced from nameplate figures and
// the governor's own backlog.
func NewGovernor(s *Scenario, cfg GovernorConfig, stats *CloudStats) (*Governor, error) {
	return vcloud.NewGovernor(s.Kernel, cfg, stats)
}

// NewRemoteCloud builds a conventional-cloud backend behind the uplink
// (no congestion feedback — the legacy infinite-pipe model).
func NewRemoteCloud(name string, s *Scenario, uplink *Uplink, cpu float64, stats *CloudStats) (*RemoteCloud, error) {
	return vcloud.NewRemoteCloud(name, s.Kernel, uplink, cpu, stats)
}

// NewRemoteCloudSender builds a conventional-cloud backend whose
// exchanges ride an estimator-backed UplinkSender, feeding the
// governor's live view of the channel.
func NewRemoteCloudSender(name string, s *Scenario, sender *UplinkSender, cpu float64, stats *CloudStats) (*RemoteCloud, error) {
	return vcloud.NewRemoteCloudSender(name, s.Kernel, sender, cpu, stats)
}

// Security types (the §V.A secure v-cloud architecture).
type (
	// Security configures authenticated cloud formation.
	Security = vcloud.Security
	// SecureCloud is a deployment whose membership is authentication-gated.
	SecureCloud = vcloud.SecureDeployment
	// AuthMetrics aggregates handshake telemetry.
	AuthMetrics = auth.Metrics
	// TrustedAuthority is the PKI root all vehicles enroll with.
	TrustedAuthority = pki.TA
	// Ledger is the incentive credit ledger.
	Ledger = vcloud.Ledger
)

// Fault-injection types (the dependability drill subsystem; see
// internal/faults for the plan language).
type (
	// FaultPlan is an ordered, deterministic fault schedule.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// FaultInjector binds fault plans to a scenario.
	FaultInjector = faults.Injector
)

// ParseFaultPlan reads a fault plan in the textual plan language, e.g.
// "30s rsu-down 0; 45s partition 1500,0 400 20s; 60s loss 0.3 10s".
func ParseFaultPlan(text string) (FaultPlan, error) { return faults.Parse(text) }

// NewFaultInjector creates a fault injector over the scenario; schedule
// plans on it before or during the run.
func NewFaultInjector(s *Scenario) (*FaultInjector, error) { return faults.NewInjector(s) }

// Storage-service types (the §III.A data-storage service over churn;
// see internal/store).
type (
	// StorageBackend is the quorum storage contract: replicated or
	// erasure-coded objects over cluster members.
	StorageBackend = store.Backend
	// StorageConfig tunes replication/erasure factors, quorum sizes,
	// consistency level and churn model.
	StorageConfig = store.Config
	// StorageView is the membership/reachability view a backend places
	// against (wire a controller's StorageView or a FuncView).
	StorageView = store.View
	// StorageStats counts writes, reads, repairs and bytes moved.
	StorageStats = store.Stats
)

// NewReplicatedStore builds a whole-copy quorum backend (W+R>N strict
// intersection).
func NewReplicatedStore(cfg StorageConfig, v StorageView, st *StorageStats) (StorageBackend, error) {
	return store.NewReplicated(cfg, v, st)
}

// NewErasureCodedStore builds a (K, M) Reed–Solomon backend: any K of
// K+M fragments reconstruct an object.
func NewErasureCodedStore(cfg StorageConfig, v StorageView, st *StorageStats) (StorageBackend, error) {
	return store.NewErasureCoded(cfg, v, st)
}

// Experiment types.
type (
	// ExperimentConfig tunes an experiment run.
	ExperimentConfig = experiments.Config
	// ExperimentResult is one experiment's table and named values.
	ExperimentResult = experiments.Result
)

// HighwayOptions configures NewHighwayScenario.
type HighwayOptions struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// LengthM is the corridor length (default 3000 m).
	LengthM float64
	// SpeedLimit in m/s (default 27 ≈ 100 km/h).
	SpeedLimit float64
	// Vehicles is the population (default 40).
	Vehicles int
}

// NewHighwayScenario builds the standard two-direction highway corridor
// used by most experiments.
func NewHighwayScenario(opts HighwayOptions) (*Scenario, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.LengthM <= 0 {
		opts.LengthM = 3000
	}
	if opts.SpeedLimit <= 0 {
		opts.SpeedLimit = 27
	}
	if opts.Vehicles <= 0 {
		opts.Vehicles = 40
	}
	net, err := roadnet.Highway(roadnet.HighwaySpec{
		LengthM:    opts.LengthM,
		Segments:   3,
		SpeedLimit: opts.SpeedLimit,
		Lanes:      2,
	})
	if err != nil {
		return nil, err
	}
	return scenario.New(scenario.Spec{Seed: opts.Seed, Network: net, NumVehicles: opts.Vehicles})
}

// cityBlockM is the city grid's intersection spacing in meters.
const cityBlockM = 200

// CityOptions configures NewCityScenario.
type CityOptions struct {
	Seed     int64
	Blocks   int // grid is Blocks×Blocks intersections (default 5)
	Vehicles int // default 50
}

// NewCityScenario builds a Manhattan-grid urban scenario.
func NewCityScenario(opts CityOptions) (*Scenario, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Blocks < 2 {
		opts.Blocks = 5
	}
	if opts.Vehicles <= 0 {
		opts.Vehicles = 50
	}
	net, err := roadnet.Grid(roadnet.GridSpec{
		Rows: opts.Blocks, Cols: opts.Blocks, Spacing: cityBlockM, SpeedLimit: 13.9, Lanes: 1,
	})
	if err != nil {
		return nil, err
	}
	return scenario.New(scenario.Spec{Seed: opts.Seed, Network: net, NumVehicles: opts.Vehicles})
}

// ParkingLotOptions configures NewParkingLotScenario.
type ParkingLotOptions struct {
	Seed     int64
	Aisles   int // default 4
	Vehicles int // parked vehicles, default 30
}

// NewParkingLotScenario builds the stationary-cloud scenario: parked
// vehicles plus a gate RSU acting as the coordinator ([4]'s airport
// datacenter).
func NewParkingLotScenario(opts ParkingLotOptions) (*Scenario, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Aisles < 1 {
		opts.Aisles = 4
	}
	if opts.Vehicles <= 0 {
		opts.Vehicles = 30
	}
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: opts.Aisles, AisleLenM: 200, AisleGapM: 40})
	if err != nil {
		return nil, err
	}
	s, err := scenario.New(scenario.Spec{Seed: opts.Seed, Network: net, NumVehicles: opts.Vehicles, Parked: true})
	if err != nil {
		return nil, err
	}
	if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
		return nil, err
	}
	return s, nil
}

// DeployCloud assembles a vehicular cloud of the given architecture over
// the scenario with sensible defaults: mobility clustering for dynamic
// clouds, route-aware dwell estimation and handover enabled.
func DeployCloud(s *Scenario, arch Architecture, stats *CloudStats) (*Cloud, error) {
	if stats == nil {
		return nil, fmt.Errorf("vcloud: stats must not be nil")
	}
	return vcloud.Deploy(s, arch, vcloud.DeployConfig{
		Handover:    true,
		DwellMode:   mobility.DwellRouteAware,
		ClusterAlgo: cluster.MobilitySimilarity{},
	}, stats)
}

// NewTrustedAuthority creates a PKI trusted authority with a
// deterministic key derived from seed.
func NewTrustedAuthority(name string, seed int64) (*TrustedAuthority, error) {
	return pki.New(name, mrand.New(mrand.NewSource(seed)), pki.Config{})
}

// DeploySecureCloud assembles an authentication-gated vehicular cloud
// (§V.A): vehicles enroll with the TA, mutually authenticate with
// controllers before joining, and revoked vehicles are excluded.
func DeploySecureCloud(s *Scenario, arch Architecture, ta *TrustedAuthority, met *AuthMetrics, stats *CloudStats) (*SecureCloud, error) {
	return vcloud.DeploySecure(s, arch, vcloud.DeployConfig{
		Handover:    true,
		DwellMode:   mobility.DwellRouteAware,
		ClusterAlgo: cluster.MobilitySimilarity{},
	}, vcloud.Security{TA: ta, Metrics: met}, stats)
}

// RunExperiment executes one of the paper-reproduction experiments
// (E1–E17) and returns its table and named values.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	for _, r := range experiments.All() {
		if r.ID == id {
			return r.Run(cfg)
		}
	}
	return nil, fmt.Errorf("vcloud: unknown experiment %q (valid: E1..E17)", id)
}

// Geo-sharded parallel kernel types (see internal/sim/shard.go for the
// conservative-lookahead coordinator and internal/shardworld for the
// composed scenario).
type (
	// ShardedKernel runs one simulation across N geographic shards — one
	// event kernel per shard, synchronized in conservative lookahead
	// windows with a fixed cross-shard merge order, so results are
	// bit-for-bit identical to a serial kernel at any shard count.
	ShardedKernel = sim.ShardedKernel
	// ShardWorldConfig parameterizes a geo-sharded beaconing scenario.
	ShardWorldConfig = shardworld.Config
	// ShardWorldResult is a finished sharded run: shard-invariant sampled
	// output plus sharding and performance telemetry.
	ShardWorldResult = shardworld.Result
	// ShardOutage silences beacons from a region for a tick interval.
	ShardOutage = shardworld.Outage
	// ShardSampleRow is one fleet-wide counter sample.
	ShardSampleRow = shardworld.SampleRow
)

// NewShardedKernel creates a sharded kernel: n shards, conservative
// lookahead L. Cross-shard events must be injected at least L ahead.
func NewShardedKernel(seed int64, n int, lookahead Duration) (*ShardedKernel, error) {
	return sim.NewShardedKernel(seed, n, lookahead)
}

// DefaultShardWorldConfig returns the standard sharded-world scenario.
func DefaultShardWorldConfig(seed int64, shards int) ShardWorldConfig {
	return shardworld.DefaultConfig(seed, shards)
}

// RunShardWorld executes the geo-sharded beaconing scenario and returns
// its result; equal configs (including shard count changes) reproduce
// the model output bit-for-bit — compare ShardWorldResult.Checksum.
func RunShardWorld(cfg ShardWorldConfig) (*ShardWorldResult, error) { return shardworld.Run(cfg) }

// Chaos-soak types (the long-horizon invariant harness; see
// internal/chaos).
type (
	// SoakConfig tunes a chaos soak run.
	SoakConfig = chaos.SoakConfig
	// SoakReport is a finished soak's counters, violations and
	// reproducibility checksum.
	SoakReport = chaos.Report
)

// RunSoak executes a seeded chaos soak: randomized crashes, partitions,
// loss bursts, controller kills and Byzantine flips over a long horizon,
// with dependability invariants asserted continuously. An empty
// Violations slice in the report is the pass criterion; equal configs
// reproduce runs bit-for-bit (compare Checksum).
func RunSoak(cfg SoakConfig) (*SoakReport, error) { return chaos.Soak(cfg) }

// Sharded-kernel storm-soak types (see internal/chaos/shard.go).
type (
	// ShardSoakConfig tunes the sharded-kernel storm soak: seeded storm
	// episodes (churn + roaming beacon outages), each run sharded and
	// serial with bit-for-bit output equality as the armed invariant.
	ShardSoakConfig = chaos.ShardSoakConfig
	// ShardSoakReport is the storm soak's outcome; empty Violations is
	// the pass criterion.
	ShardSoakReport = chaos.ShardSoakReport
)

// RunShardSoak executes the sharded-kernel storm soak.
func RunShardSoak(cfg ShardSoakConfig) (*ShardSoakReport, error) { return chaos.RunShardSoak(cfg) }

// Experiments lists the available experiment IDs with their titles.
func Experiments() map[string]string {
	out := make(map[string]string)
	for _, r := range experiments.All() {
		out[r.ID] = r.Name
	}
	return out
}

// Seconds converts a float seconds count to virtual time.
func Seconds(s float64) Duration { return Duration(s * float64(time.Second)) }
