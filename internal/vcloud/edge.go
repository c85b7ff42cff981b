// RSU edge tier: a roadside unit running an ETSI-MEC-style edge server
// as a first-class placement target (PR 7). The paper's §II positions
// vehicular clouds between pure V2V resource pooling and the fixed
// edge/cloud hierarchy; this file models the middle rung — an RSU with
// wired power and a stable position that joins the vehicular cloud as
// a member whose dwell is effectively infinite.
//
// The model is deliberately small: an edge server is a Member with
//
//   - EdgeTier set, which exempts it from the controller's residual-
//     dwell gate (it never drives away) and makes the placement
//     tie-break prefer it for critical stages at equal finish time;
//   - StartDelay, the per-task offload round-trip (backhaul + MEC
//     startup), which the controller adds to its predicted finish so a
//     nearby vehicle still wins short tasks;
//   - its own CPU/storage capacity, typically larger than a vehicle's.
//
// Everything else — joins, dispatch, voting, stage handoff, battery
// (unlimited: zero BatteryOps) — is inherited unchanged, so edge
// placement composes with replication, fencing and failover for free.
package vcloud

import (
	"fmt"
	"time"

	"vcloud/internal/vnet"
)

// edgeProcDelay is the fixed per-task offload overhead (backhaul +
// startup), added before compute begins.
const edgeProcDelay = 20 * time.Millisecond

// EdgeConfig sizes one RSU edge server.
type EdgeConfig struct {
	// CPU is the edge server's compute rate in ops/sec.
	CPU float64
	// Storage is the edge server's storage capacity in MB.
	Storage float64
	// Sensors the RSU contributes (roadside cameras, induction loops).
	Sensors []string
}

// EdgeServer is an RSU-hosted member of the vehicular cloud.
type EdgeServer struct {
	*Member
}

// NewEdgeServer creates and starts an edge server agent on node.
func NewEdgeServer(node *vnet.Node, cfg EdgeConfig, stats *Stats) (*EdgeServer, error) {
	if cfg.CPU <= 0 {
		return nil, fmt.Errorf("vcloud: edge CPU must be positive, got %v", cfg.CPU)
	}
	m, err := NewMember(node, MemberConfig{
		Resources:  Resources{CPU: cfg.CPU, Storage: cfg.Storage, Sensors: cfg.Sensors},
		EdgeTier:   true,
		StartDelay: edgeProcDelay,
	}, stats)
	if err != nil {
		return nil, err
	}
	return &EdgeServer{Member: m}, nil
}
