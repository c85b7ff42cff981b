package main

import (
	"time"

	"vcloud"
	"vcloud/internal/cluster"
)

// Adapter for cluster: the facade deploys clustering only inside a
// dynamic cloud; vanet_city runs it bare.

type (
	clusterRunner  = cluster.Runner
	clusterTracker = cluster.Tracker
)

func newClusterTracker() *clusterTracker { return cluster.NewTracker() }

// newClusterRunner attaches mobility-similarity clustering to a node.
func newClusterRunner(node *vcloud.Node, tracker *clusterTracker) (*clusterRunner, error) {
	return cluster.NewRunner(node, cluster.MobilitySimilarity{}, time.Second, tracker)
}

// probeClusterDecide times one head-election decision over the neighbor
// tables the workload's own nodes ended with.
func probeClusterDecide(layer map[string]float64, s *vcloud.Scenario) {
	algo := cluster.MobilitySimilarity{}
	type input struct {
		self cluster.NodeView
		nbrs []cluster.NeighborView
	}
	var inputs []input
	for _, id := range s.VehicleIDs() {
		node, ok := s.Node(id)
		if !ok {
			continue
		}
		in := input{self: cluster.NodeView{Addr: node.Addr(), Pos: node.Position(), Speed: node.Speed(), Heading: node.Heading()}}
		for _, nb := range node.Neighbors(nil) {
			v := cluster.NeighborView{NodeView: cluster.NodeView{Addr: nb.Addr, Pos: nb.Pos, Speed: nb.Speed, Heading: nb.Heading}}
			if ext, ok := nb.Ext.(cluster.Ext); ok {
				v.State, v.HasState = ext.State, true
			}
			in.nbrs = append(in.nbrs, v)
		}
		inputs = append(inputs, in)
		if len(inputs) == 200 {
			break
		}
	}
	if len(inputs) == 0 {
		return
	}
	cur := cluster.State{Role: cluster.Undecided, Head: -1, Hops: -1}
	const rounds = 20
	layer["cluster.probe_decide_ns"] = perCallNs(rounds*len(inputs), func() {
		for r := 0; r < rounds; r++ {
			for i := range inputs {
				cur = algo.Decide(inputs[i].self, inputs[i].nbrs, cur)
			}
		}
	})
}
