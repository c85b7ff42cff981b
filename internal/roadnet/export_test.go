package roadnet

import (
	"math"

	"vcloud/internal/geo"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Out returns the IDs of edges leaving the node. The returned slice must
// not be modified.
func (n *Node) Out() []EdgeID { return n.out }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return &n.nodes[id] }

// NearestNode returns the node closest to p.
func (n *Network) NearestNode(p geo.Point) NodeID {
	best := NodeID(0)
	bestD := math.Inf(1)
	for i := range n.nodes {
		if d := n.nodes[i].Pos.DistSq(p); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best
}

// PathLength returns the total length in meters of a path of edges.
func (n *Network) PathLength(path []EdgeID) float64 {
	var total float64
	for _, e := range path {
		total += n.edges[e].Length
	}
	return total
}

// PathTime returns the free-flow travel time in seconds of a path.
func (n *Network) PathTime(path []EdgeID) float64 {
	var total float64
	for _, e := range path {
		total += n.edges[e].Length / n.edges[e].SpeedLimit
	}
	return total
}
