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
//     selective replication, stage inputs carried by the dispatch,
//     an ETSI-MEC RSU edge tier and graceful degradation;
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
// main types under one import. Worlds — road preset, fleet, RSUs, cloud,
// adversaries and faults — are composed from one validated spec by
// internal/world; the examples/ directory shows complete programs, and
// internal packages remain importable inside this module.
package vcloud

import (
	mrand "math/rand"
	"time"

	"vcloud/internal/auth"
	"vcloud/internal/faults"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
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
	// JobResult reports a finished job with per-stage outcomes.
	JobResult = vcloud.JobResult
	// EdgeConfig sizes an RSU-hosted ETSI-MEC edge server.
	EdgeConfig = vcloud.EdgeConfig
	// EdgeServer is a fixed-infrastructure cloud member hosted on an RSU.
	EdgeServer = vcloud.EdgeServer
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
	// coverage: transfers serialize at the link's bandwidth, queue FIFO
	// behind its backlog and tail-drop past MaxQueueDelay — the channel a
	// congestion controller can observe.
	Uplink = radio.Uplink
	// UplinkParams configures an uplink.
	UplinkParams = radio.UplinkParams
	// UplinkSender is one traffic source's handle on a shared uplink;
	// exchanges routed through it feed a GCC-style delay-gradient
	// bandwidth estimator.
	UplinkSender = radio.Sender
	// BWEConfig tunes a bandwidth estimator.
	BWEConfig = radio.BWEConfig
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
	TierCloud   = vcloud.TierCloud
)

// NewGovernor builds a placement governor over the given tiers. Tiers
// with a Sender get live delay-gradient bandwidth, loss and queue-delay
// estimates; tiers without one are priced from nameplate figures and
// the governor's own backlog.
func NewGovernor(s *Scenario, cfg GovernorConfig, stats *CloudStats) (*Governor, error) {
	return vcloud.NewGovernor(s.Kernel, cfg, stats)
}

// NewRemoteCloudSender builds a conventional-cloud backend whose
// exchanges ride an estimator-backed UplinkSender, feeding the
// governor's live view of the channel.
func NewRemoteCloudSender(name string, s *Scenario, sender *UplinkSender, cpu float64, stats *CloudStats) (*RemoteCloud, error) {
	return vcloud.NewRemoteCloud(name, s.Kernel, sender, cpu, stats)
}

// Security types (the §V.A secure v-cloud architecture).
type (
	// AuthMetrics aggregates handshake telemetry.
	AuthMetrics = auth.Metrics
	// TrustedAuthority is the PKI root all vehicles enroll with.
	TrustedAuthority = pki.TA
)

// Fault-injection types (the dependability drill subsystem; see
// internal/faults for the plan language).
type (
	// FaultPlan is an ordered, deterministic fault schedule.
	FaultPlan = faults.Plan
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

// NewTrustedAuthority creates a PKI trusted authority with a
// deterministic key derived from seed.
func NewTrustedAuthority(name string, seed int64) (*TrustedAuthority, error) {
	return pki.New(name, mrand.New(mrand.NewSource(seed)), pki.Config{})
}

// Geo-sharded parallel kernel types (see internal/sim/shard.go for the
// conservative-lookahead coordinator and internal/shardworld for the
// composed scenario).
type (
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

// DefaultShardWorldConfig returns the standard sharded-world scenario.
func DefaultShardWorldConfig(seed int64, shards int) ShardWorldConfig {
	return shardworld.DefaultConfig(seed, shards)
}

// RunShardWorld executes the geo-sharded beaconing scenario and returns
// its result; equal configs (including shard count changes) reproduce
// the model output bit-for-bit — compare ShardWorldResult.Checksum.
func RunShardWorld(cfg ShardWorldConfig) (*ShardWorldResult, error) { return shardworld.Run(cfg) }

// Seconds converts a float seconds count to virtual time.
func Seconds(s float64) Duration { return Duration(s * float64(time.Second)) }
