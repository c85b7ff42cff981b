// Package roadnet models the road network that vehicles move on: a
// directed graph of intersections (nodes) and road segments (edges) with
// speed limits, plus generators for the synthetic topologies used in the
// experiments (Manhattan grid, highway corridor, parking lot) and
// shortest-path routing for vehicle trip planning.
//
// The package substitutes for the real road maps / traces the vehicular
// networking literature uses (see DESIGN.md, substitution table): what the
// paper's arguments depend on is density, speed and direction structure,
// all of which these generators produce.
package roadnet

import (
	"container/heap"
	"fmt"
	"math"

	"vcloud/internal/geo"
)

// NodeID identifies an intersection.
type NodeID int32

// EdgeID identifies a directed road segment.
type EdgeID int32

// Node is an intersection or endpoint.
type Node struct {
	ID  NodeID
	Pos geo.Point
	// out holds IDs of edges leaving this node.
	out []EdgeID
}

// Out returns the IDs of edges leaving the node. The returned slice must
// not be modified.
func (n *Node) Out() []EdgeID { return n.out }

// Edge is a one-way road segment from From to To. Two-way roads are two
// edges.
type Edge struct {
	ID         EdgeID
	From, To   NodeID
	Length     float64 // meters
	SpeedLimit float64 // m/s
	Lanes      int
}

// Network is an immutable-after-build road network.
type Network struct {
	nodes  []Node
	edges  []Edge
	bounds geo.Rect
}

// Builder incrementally constructs a Network.
type Builder struct {
	n Network
}

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode adds an intersection at pos and returns its ID.
func (b *Builder) AddNode(pos geo.Point) NodeID {
	id := NodeID(len(b.n.nodes))
	b.n.nodes = append(b.n.nodes, Node{ID: id, Pos: pos})
	return id
}

// AddEdge adds a one-way segment between existing nodes. Length is derived
// from node positions. speedLimit is in m/s and must be positive.
func (b *Builder) AddEdge(from, to NodeID, speedLimit float64, lanes int) (EdgeID, error) {
	if int(from) >= len(b.n.nodes) || int(to) >= len(b.n.nodes) || from < 0 || to < 0 {
		return 0, fmt.Errorf("roadnet: edge endpoints %d->%d out of range", from, to)
	}
	if from == to {
		return 0, fmt.Errorf("roadnet: self-loop at node %d", from)
	}
	if speedLimit <= 0 {
		return 0, fmt.Errorf("roadnet: speed limit must be positive, got %v", speedLimit)
	}
	if lanes < 1 {
		lanes = 1
	}
	id := EdgeID(len(b.n.edges))
	e := Edge{
		ID:         id,
		From:       from,
		To:         to,
		Length:     b.n.nodes[from].Pos.Dist(b.n.nodes[to].Pos),
		SpeedLimit: speedLimit,
		Lanes:      lanes,
	}
	b.n.edges = append(b.n.edges, e)
	b.n.nodes[from].out = append(b.n.nodes[from].out, id)
	return id, nil
}

// AddTwoWay adds edges in both directions and returns both IDs.
func (b *Builder) AddTwoWay(a, c NodeID, speedLimit float64, lanes int) (EdgeID, EdgeID, error) {
	e1, err := b.AddEdge(a, c, speedLimit, lanes)
	if err != nil {
		return 0, 0, err
	}
	e2, err := b.AddEdge(c, a, speedLimit, lanes)
	if err != nil {
		return 0, 0, err
	}
	return e1, e2, nil
}

// Build finalizes and returns the network. The builder must not be used
// afterwards.
func (b *Builder) Build() (*Network, error) {
	if len(b.n.nodes) == 0 {
		return nil, fmt.Errorf("roadnet: network has no nodes")
	}
	minP := geo.Point{X: math.Inf(1), Y: math.Inf(1)}
	maxP := geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, n := range b.n.nodes {
		minP.X = math.Min(minP.X, n.Pos.X)
		minP.Y = math.Min(minP.Y, n.Pos.Y)
		maxP.X = math.Max(maxP.X, n.Pos.X)
		maxP.Y = math.Max(maxP.Y, n.Pos.Y)
	}
	// Pad so border positions are strictly inside.
	pad := 50.0
	b.n.bounds = geo.NewRect(
		geo.Point{X: minP.X - pad, Y: minP.Y - pad},
		geo.Point{X: maxP.X + pad, Y: maxP.Y + pad},
	)
	net := b.n
	b.n = Network{}
	return &net, nil
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumEdges returns the edge count.
func (n *Network) NumEdges() int { return len(n.edges) }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return &n.nodes[id] }

// Edge returns the edge with the given ID.
func (n *Network) Edge(id EdgeID) *Edge { return &n.edges[id] }

// Bounds returns the padded bounding box of the network.
func (n *Network) Bounds() geo.Rect { return n.bounds }

// PosAlong returns the position a fraction t (0..1) along edge e.
func (n *Network) PosAlong(e EdgeID, t float64) geo.Point {
	ed := &n.edges[e]
	return n.nodes[ed.From].Pos.Lerp(n.nodes[ed.To].Pos, t)
}

// EdgeHeading returns the travel heading of edge e in radians.
func (n *Network) EdgeHeading(e EdgeID) float64 {
	ed := &n.edges[e]
	return n.nodes[ed.To].Pos.Sub(n.nodes[ed.From].Pos).Heading()
}

// NearestNode returns the node closest to p.
func (n *Network) NearestNode(p geo.Point) NodeID {
	best := NodeID(0)
	bestD := math.Inf(1)
	for i := range n.nodes {
		if d := n.nodes[i].Pos.DistSq(p); d < bestD {
			best, bestD = n.nodes[i].ID, d
		}
	}
	return best
}

// pathItem is a priority-queue entry for Dijkstra/A*.
type pathItem struct {
	node  NodeID
	prio  float64
	index int
}

type pathQueue []*pathItem

func (q pathQueue) Len() int           { return len(q) }
func (q pathQueue) Less(i, j int) bool { return q[i].prio < q[j].prio }
func (q pathQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *pathQueue) Push(x any)        { it := x.(*pathItem); it.index = len(*q); *q = append(*q, it) }
func (q *pathQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// ShortestPath returns the sequence of edges of the fastest route (by
// free-flow travel time) from src to dst, using A* with a straight-line
// travel-time heuristic. It returns an error when dst is unreachable.
// A path from a node to itself is the empty path.
//
// Route planning allocates its search state per call. The one hot path
// that reaches it, mobility.Manager.Step, does so once per vehicle per
// trip end rather than per tick, hence the hotalloc directives below.
func (n *Network) ShortestPath(src, dst NodeID) ([]EdgeID, error) {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) || src < 0 || dst < 0 {
		//vcloudlint:allow hotalloc per-trip planning, not per-tick work (see the function comment)
		return nil, fmt.Errorf("roadnet: path endpoints %d->%d out of range", src, dst)
	}
	if src == dst {
		return nil, nil
	}
	// Admissible heuristic: straight-line distance at the network's top
	// speed.
	maxSpeed := 0.0
	for i := range n.edges {
		if n.edges[i].SpeedLimit > maxSpeed {
			maxSpeed = n.edges[i].SpeedLimit
		}
	}
	if maxSpeed == 0 {
		return nil, fmt.Errorf("roadnet: network has no edges")
	}
	//vcloudlint:allow hotalloc per-trip planning, not per-tick work (see the function comment)
	h := func(a NodeID) float64 {
		return n.nodes[a].Pos.Dist(n.nodes[dst].Pos) / maxSpeed
	}

	//vcloudlint:allow hotalloc per-trip planning, not per-tick work (see the function comment)
	dist := make(map[NodeID]float64, len(n.nodes))
	prevEdge := make(map[NodeID]EdgeID, len(n.nodes))
	done := make(map[NodeID]bool, len(n.nodes))
	dist[src] = 0
	pq := pathQueue{{node: src, prio: h(src)}}
	heap.Init(&pq)

	for pq.Len() > 0 {
		cur := heap.Pop(&pq).(*pathItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		if cur.node == dst {
			break
		}
		for _, eid := range n.nodes[cur.node].out {
			e := &n.edges[eid]
			if done[e.To] {
				continue
			}
			nd := dist[cur.node] + e.Length/e.SpeedLimit
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				heap.Push(&pq, &pathItem{node: e.To, prio: nd + h(e.To)})
			}
		}
	}
	if !done[dst] {
		return nil, fmt.Errorf("roadnet: node %d unreachable from %d", dst, src)
	}
	var rev []EdgeID
	for at := dst; at != src; {
		e := prevEdge[at]
		//vcloudlint:allow hotalloc per-trip planning, not per-tick work (see the function comment)
		rev = append(rev, e)
		at = n.edges[e].From
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
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
