// Package cluster implements the distributed vehicle-clustering protocols
// the paper's §IV.A.1 identifies as the organizational substrate of
// vehicular clouds: cluster heads coordinate resource sharing, task
// allocation and result aggregation.
//
// Three algorithms are provided, matching the survey's taxonomy:
//
//   - LowestID: the classic baseline — the smallest address in the
//     neighborhood becomes head.
//   - MobilitySimilarity: speed/direction-aware head election in the
//     spirit of VMaSC and of MoZo's moving zones [22]: the node whose
//     motion best matches its neighborhood leads, so clusters survive
//     longer.
//   - PassiveMultiHop: the PMC algorithm of Zhang et al. [46]: members
//     affiliate through already-joined neighbors up to N hops from the
//     head ("priority neighborhood following"), and the most stable node
//     passively becomes head.
//
// All algorithms run fully distributed: state is exchanged only via
// beacon extensions; a node decides from its own kinematics and its
// neighbor table. This is what "self-organized, no central authority"
// (§III) means operationally.
package cluster

import (
	"fmt"
	"math"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// Role is a node's position in its cluster.
type Role int

// Roles. Undecided nodes are not yet in any cluster.
const (
	Undecided Role = iota + 1
	Head
	Member
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Undecided:
		return "undecided"
	case Head:
		return "head"
	case Member:
		return "member"
	default:
		return "unknown"
	}
}

// State is a node's current cluster assignment.
type State struct {
	Role Role
	// Head is the cluster head's address (== own address for heads).
	Head vnet.Addr
	// Hops is the distance to the head in hops (0 for the head itself).
	Hops int
	// Score is the node's own head-suitability score (lower is better);
	// advertised so neighbors can compare candidates.
	Score float64
}

// Ext is the beacon extension carrying cluster state.
type Ext struct {
	State State
}

// NodeView is what an algorithm sees about the local node.
type NodeView struct {
	Addr    vnet.Addr
	Pos     geo.Point
	Speed   float64
	Heading float64
}

// NeighborView is what an algorithm sees about one neighbor.
type NeighborView struct {
	NodeView
	State State
	// HasState is false when the neighbor's beacons carry no cluster
	// extension yet.
	HasState bool
}

// Algorithm computes a node's next cluster state.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Decide returns the node's new state given its own view, its live
	// neighbors, and its current state. neighbors is the Runner's
	// scratch, overwritten on its next tick: Decide must not retain it.
	Decide(self NodeView, neighbors []NeighborView, cur State) State
}

// mobilityScore quantifies how well a node's motion matches its
// neighborhood: mean relative speed plus weighted heading difference.
// Lower is better (a more "central" mover). Nodes with no neighbors get a
// high score so they only lead singleton clusters.
func mobilityScore(self NodeView, neighbors []NeighborView) float64 {
	var total float64
	n := 0
	for _, nb := range neighbors {
		if !sameDirection(self.Heading, nb.Heading) {
			// Opposing traffic is transient by construction; counting it
			// would make every score fluctuate as vehicles stream past
			// (the flaw the paper attributes to naive clustering).
			continue
		}
		dv := math.Abs(self.Speed - nb.Speed)
		dh := geo.AngleDiff(self.Heading, nb.Heading)
		dd := self.Pos.Dist(nb.Pos)
		total += dv + 10*dh + dd/100
		n++
	}
	if n == 0 {
		return 1000
	}
	// Favour nodes with more same-direction neighbors: divide by count
	// and subtract a small degree bonus so dense centers win ties.
	return total/float64(n) - 0.1*float64(n)
}

// sameDirection reports whether two headings are within 90° — the "moving
// zone" membership criterion of MoZo [22].
func sameDirection(a, b float64) bool {
	return geo.AngleDiff(a, b) < math.Pi/2
}

// LowestID is the classic baseline: the lowest address wins.
type LowestID struct{}

// Name implements Algorithm.
func (LowestID) Name() string { return "lowest-id" }

// Decide implements Algorithm.
func (LowestID) Decide(self NodeView, neighbors []NeighborView, cur State) State {
	lowest := self.Addr
	for _, nb := range neighbors {
		if nb.Addr < lowest {
			lowest = nb.Addr
		}
	}
	if lowest == self.Addr {
		return State{Role: Head, Head: self.Addr, Hops: 0, Score: float64(self.Addr)}
	}
	// Join the lowest-addressed neighbor that is (or will become) a head;
	// if that neighbor is itself a member, still point at it — next round
	// converges because the neighbor does the same computation.
	return State{Role: Member, Head: lowest, Hops: 1, Score: float64(self.Addr)}
}

// MobilitySimilarity elects the most mobility-central node in each
// one-hop neighborhood, with hysteresis to avoid head flapping.
type MobilitySimilarity struct {
	// Hysteresis is the score margin by which a challenger must beat the
	// current head before the node re-affiliates. Default 5.
	Hysteresis float64
}

// Name implements Algorithm.
func (a MobilitySimilarity) Name() string { return "mobility" }

// Decide implements Algorithm.
//
// Rules, in priority order:
//  1. A member whose head still beacons as a head keeps it (sticky),
//     unless another head beats it by the hysteresis margin.
//  2. A head that meets a better head abdicates and joins it (cluster
//     merge); otherwise it stays head.
//  3. An unaffiliated node joins the best advertised head in range.
//  4. With no head in range, the node becomes head only if its own score
//     is the best in the neighborhood (ties break toward lower address);
//     otherwise it stays undecided and lets the better candidate claim
//     headship next round.
func (a MobilitySimilarity) Decide(self NodeView, neighbors []NeighborView, cur State) State {
	hyst := a.Hysteresis
	if hyst <= 0 {
		hyst = 5
	}
	myScore := mobilityScore(self, neighbors)

	// Candidate heads: neighbors that advertise themselves as heads.
	bestHead := vnet.Addr(-1)
	bestScore := math.Inf(1)
	var curHeadNb *NeighborView
	for i := range neighbors {
		nb := &neighbors[i]
		if !nb.HasState || nb.State.Role != Head || !sameDirection(self.Heading, nb.Heading) {
			continue
		}
		if nb.Addr == cur.Head {
			curHeadNb = nb
		}
		if nb.State.Score < bestScore || (nb.State.Score == bestScore && nb.Addr < bestHead) {
			bestHead, bestScore = nb.Addr, nb.State.Score
		}
	}

	// Rule 1: sticky membership.
	if cur.Role == Member && curHeadNb != nil {
		if bestHead >= 0 && bestHead != cur.Head && bestScore+hyst < curHeadNb.State.Score {
			return State{Role: Member, Head: bestHead, Hops: 1, Score: myScore}
		}
		return State{Role: Member, Head: cur.Head, Hops: 1, Score: myScore}
	}

	// Rule 2: head merge.
	if cur.Role == Head {
		if bestHead >= 0 && bestScore+hyst < myScore {
			return State{Role: Member, Head: bestHead, Hops: 1, Score: myScore}
		}
		return State{Role: Head, Head: self.Addr, Hops: 0, Score: myScore}
	}

	// Rule 3: join any head in range.
	if bestHead >= 0 {
		return State{Role: Member, Head: bestHead, Hops: 1, Score: myScore}
	}

	// Rule 4: head emergence.
	for _, nb := range neighbors {
		if !nb.HasState {
			continue
		}
		if nb.State.Score < myScore || (nb.State.Score == myScore && nb.Addr < self.Addr) {
			return State{Role: Undecided, Head: -1, Hops: -1, Score: myScore}
		}
	}
	return State{Role: Head, Head: self.Addr, Hops: 0, Score: myScore}
}

// PassiveMultiHop is PMC [46]: members can sit up to MaxHops from the
// head, joining through the "priority neighborhood following" rule.
type PassiveMultiHop struct {
	// MaxHops is N in the paper's N-hop constraint. Default 2.
	MaxHops int
	// Hysteresis as in MobilitySimilarity. Default 5.
	Hysteresis float64
}

// Name implements Algorithm.
func (a PassiveMultiHop) Name() string { return "pmc" }

// Decide implements Algorithm.
//
// The priority-neighborhood-following rule: a node attaches through the
// neighbor that yields the fewest hops to a head (then the best score),
// subject to the N-hop constraint; heads merge on contact like
// MobilitySimilarity; head emergence is passive — the locally most stable
// node claims headship only when no cluster is reachable.
func (a PassiveMultiHop) Decide(self NodeView, neighbors []NeighborView, cur State) State {
	maxHops := a.MaxHops
	if maxHops < 1 {
		maxHops = 2
	}
	hyst := a.Hysteresis
	if hyst <= 0 {
		hyst = 5
	}
	myScore := mobilityScore(self, neighbors)

	// Best attachment point: a clustered neighbor with hops+1 <= maxHops;
	// prefer the smallest resulting hop count, then the lowest advertised
	// score.
	bestHead := vnet.Addr(-1)
	bestHops := maxHops + 1
	bestScore := math.Inf(1)
	for _, nb := range neighbors {
		if !nb.HasState || nb.State.Role == Undecided || nb.State.Head < 0 || nb.State.Head == self.Addr {
			continue
		}
		if !sameDirection(self.Heading, nb.Heading) {
			continue
		}
		h := nb.State.Hops + 1
		if h > maxHops {
			continue
		}
		if h < bestHops || (h == bestHops && nb.State.Score < bestScore) {
			bestHead, bestHops, bestScore = nb.State.Head, h, nb.State.Score
		}
	}

	// Sticky: keep the current affiliation while a route to that head is
	// still advertised by some neighbor.
	if cur.Role == Member && cur.Head >= 0 {
		for _, nb := range neighbors {
			if !nb.HasState || nb.State.Head != cur.Head || nb.Addr == self.Addr {
				continue
			}
			if nb.State.Role != Undecided && nb.State.Hops+1 <= maxHops {
				return State{Role: Member, Head: cur.Head, Hops: nb.State.Hops + 1, Score: myScore}
			}
		}
	}

	// Head merge: a head that hears a clearly better cluster joins it.
	if cur.Role == Head {
		if bestHead >= 0 && bestScore+hyst < myScore {
			return State{Role: Member, Head: bestHead, Hops: bestHops, Score: myScore}
		}
		return State{Role: Head, Head: self.Addr, Hops: 0, Score: myScore}
	}

	if bestHead >= 0 {
		return State{Role: Member, Head: bestHead, Hops: bestHops, Score: myScore}
	}

	// Passive head emergence: become head only if no neighbor has a
	// better score (the "most stable node" rule).
	for _, nb := range neighbors {
		if !nb.HasState {
			continue
		}
		if nb.State.Score < myScore || (nb.State.Score == myScore && nb.Addr < self.Addr) {
			return State{Role: Undecided, Head: -1, Hops: -1, Score: myScore}
		}
	}
	return State{Role: Head, Head: self.Addr, Hops: 0, Score: myScore}
}

// Runner attaches an Algorithm to a vnet.Node: it advertises cluster
// state in beacons and re-decides on a fixed period.
type Runner struct {
	node    *vnet.Node
	algo    Algorithm
	state   State
	tracker *Tracker
	ticker  *sim.Ticker
	// onChange observers run after each state change.
	onChange []func(old, new State)
	// views is tick's scratch, reused so a steady-state re-decision does
	// not allocate.
	views []NeighborView
}

// NewRunner wires algo onto node. tracker may be nil.
func NewRunner(node *vnet.Node, algo Algorithm, period sim.Time, tracker *Tracker) (*Runner, error) {
	if node == nil || algo == nil {
		return nil, fmt.Errorf("cluster: node and algorithm must not be nil")
	}
	if period <= 0 {
		return nil, fmt.Errorf("cluster: period must be positive, got %v", period)
	}
	r := &Runner{
		node:    node,
		algo:    algo,
		state:   State{Role: Undecided, Head: -1, Hops: -1},
		tracker: tracker,
	}
	node.SetBeaconExt(func() any { return Ext{State: r.state} })
	t, err := node.Kernel().Every(period, r.tick)
	if err != nil {
		return nil, err
	}
	r.ticker = t
	return r, nil
}

// Stop halts periodic re-decision.
func (r *Runner) Stop() { r.ticker.Stop() }

// State returns the current cluster state.
func (r *Runner) State() State { return r.state }

// Node returns the underlying vnet node.
func (r *Runner) Node() *vnet.Node { return r.node }

// OnChange registers an observer of state transitions.
func (r *Runner) OnChange(fn func(old, new State)) {
	if fn != nil {
		r.onChange = append(r.onChange, fn)
	}
}

func (r *Runner) tick() {
	self := NodeView{
		Addr:    r.node.Addr(),
		Pos:     r.node.Position(),
		Speed:   r.node.Speed(),
		Heading: r.node.Heading(),
	}
	r.views = r.views[:0]
	for _, row := range r.node.Rows() {
		nb := row.Beacon
		v := NeighborView{
			NodeView: NodeView{Addr: nb.From, Pos: nb.Pos, Speed: nb.Speed, Heading: nb.Heading},
		}
		if ext, ok := nb.Ext.(Ext); ok {
			v.State = ext.State
			v.HasState = true
		}
		r.views = append(r.views, v)
	}
	next := r.algo.Decide(self, r.views, r.state)
	if next != r.state {
		old := r.state
		r.state = next
		if r.tracker != nil {
			r.tracker.Record(r.node.Kernel().Now(), r.node.Addr(), old, next)
		}
		for _, fn := range r.onChange {
			fn(old, next)
		}
	}
}
