package cluster

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

func nv(addr vnet.Addr, x, y, speed, heading float64) NodeView {
	return NodeView{Addr: addr, Pos: geo.Point{X: x, Y: y}, Speed: speed, Heading: heading}
}

func nbv(addr vnet.Addr, x, y, speed, heading float64, st State) NeighborView {
	return NeighborView{NodeView: nv(addr, x, y, speed, heading), State: st, HasState: true}
}

func TestRoleString(t *testing.T) {
	if Undecided.String() != "undecided" || Head.String() != "head" || Member.String() != "member" {
		t.Error("role strings wrong")
	}
	if Role(0).String() != "unknown" {
		t.Error("zero role should be unknown")
	}
}

func TestLowestIDSelfIsLowest(t *testing.T) {
	var a LowestID
	st := a.Decide(nv(1, 0, 0, 10, 0), []NeighborView{
		nbv(5, 10, 0, 10, 0, State{}),
		nbv(9, 20, 0, 10, 0, State{}),
	}, State{})
	if st.Role != Head || st.Head != 1 || st.Hops != 0 {
		t.Errorf("state = %+v, want head", st)
	}
}

func TestLowestIDJoinsLowerNeighbor(t *testing.T) {
	var a LowestID
	st := a.Decide(nv(7, 0, 0, 10, 0), []NeighborView{
		nbv(3, 10, 0, 10, 0, State{Role: Head, Head: 3}),
		nbv(9, 20, 0, 10, 0, State{}),
	}, State{})
	if st.Role != Member || st.Head != 3 || st.Hops != 1 {
		t.Errorf("state = %+v, want member of 3", st)
	}
}

func TestLowestIDIsolatedNodeIsHead(t *testing.T) {
	var a LowestID
	st := a.Decide(nv(42, 0, 0, 10, 0), nil, State{})
	if st.Role != Head {
		t.Errorf("isolated node should lead a singleton cluster, got %+v", st)
	}
}

func TestMobilityScoreFavorsSimilarMotion(t *testing.T) {
	// Node A moves with the pack; node B moves against it. A must score
	// lower (better).
	pack := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{}),
		nbv(3, 20, 0, 21, 0, State{}),
		nbv(4, 30, 0, 19, 0, State{}),
	}
	scoreWith := mobilityScore(nv(1, 15, 0, 20, 0), pack)
	scoreAgainst := mobilityScore(nv(1, 15, 0, 20, 3.14), pack)
	if scoreWith >= scoreAgainst {
		t.Errorf("with-pack score %v should beat against-pack %v", scoreWith, scoreAgainst)
	}
	if s := mobilityScore(nv(1, 0, 0, 10, 0), nil); s < 100 {
		t.Errorf("no-neighbor score should be high, got %v", s)
	}
}

func TestMobilityDecideJoinsBestHead(t *testing.T) {
	a := MobilitySimilarity{}
	self := nv(10, 0, 0, 20, 0)
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Head, Head: 2, Score: 1}),
		nbv(3, 20, 0, 20, 0, State{Role: Head, Head: 3, Score: 9}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Role != Member || st.Head != 2 {
		t.Errorf("state = %+v, want member of best head 2", st)
	}
}

func TestMobilityHysteresisKeepsCurrentHead(t *testing.T) {
	a := MobilitySimilarity{Hysteresis: 5}
	self := nv(10, 0, 0, 20, 0)
	// Current head 3 (score 9) still alive; challenger 2 (score 6) is
	// better but within the hysteresis margin.
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Head, Head: 2, Score: 6}),
		nbv(3, 20, 0, 20, 0, State{Role: Head, Head: 3, Score: 9}),
	}
	st := a.Decide(self, nbrs, State{Role: Member, Head: 3, Hops: 1})
	if st.Head != 3 {
		t.Errorf("hysteresis should keep head 3, got %+v", st)
	}
	// A challenger clearly past the margin wins.
	nbrs[0].State.Score = 1
	st = a.Decide(self, nbrs, State{Role: Member, Head: 3, Hops: 1})
	if st.Head != 2 {
		t.Errorf("clear winner should take over, got %+v", st)
	}
}

func TestMobilityBecomesHeadWhenBestCandidate(t *testing.T) {
	a := MobilitySimilarity{}
	// Self matches the pack tightly; neighbors advertise worse scores and
	// no one is a head.
	self := nv(10, 15, 0, 20, 0)
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Undecided, Score: 500}),
		nbv(3, 20, 0, 20, 0, State{Role: Undecided, Score: 500}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Role != Head || st.Head != 10 {
		t.Errorf("state = %+v, want self-head", st)
	}
}

func TestMobilityDefersToBetterCandidate(t *testing.T) {
	a := MobilitySimilarity{}
	self := nv(10, 15, 0, 20, 0)
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Undecided, Score: -100}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Role != Undecided {
		t.Errorf("state = %+v, want undecided (better candidate exists)", st)
	}
}

func TestPMCJoinsWithinMaxHops(t *testing.T) {
	a := PassiveMultiHop{MaxHops: 2}
	self := nv(10, 0, 0, 20, 0)
	nbrs := []NeighborView{
		// Member of head 5 at 1 hop -> joining gives 2 hops, allowed.
		nbv(2, 10, 0, 20, 0, State{Role: Member, Head: 5, Hops: 1, Score: 3}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Role != Member || st.Head != 5 || st.Hops != 2 {
		t.Errorf("state = %+v, want member of 5 at 2 hops", st)
	}
}

func TestPMCRespectsHopLimit(t *testing.T) {
	a := PassiveMultiHop{MaxHops: 2}
	self := nv(10, 0, 0, 20, 0)
	nbrs := []NeighborView{
		// Neighbor already at the hop limit: joining would exceed N.
		nbv(2, 10, 0, 20, 0, State{Role: Member, Head: 5, Hops: 2, Score: -50}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Role == Member {
		t.Errorf("joined beyond hop limit: %+v", st)
	}
}

func TestPMCPrefersFewerHops(t *testing.T) {
	a := PassiveMultiHop{MaxHops: 3}
	self := nv(10, 0, 0, 20, 0)
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Member, Head: 5, Hops: 2, Score: 1}),
		nbv(3, 20, 0, 20, 0, State{Role: Head, Head: 3, Hops: 0, Score: 8}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Head != 3 || st.Hops != 1 {
		t.Errorf("state = %+v, want 1-hop member of 3", st)
	}
}

func TestPMCStickyAffiliation(t *testing.T) {
	a := PassiveMultiHop{MaxHops: 2}
	self := nv(10, 0, 0, 20, 0)
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Member, Head: 5, Hops: 1, Score: 3}),
		nbv(7, 20, 0, 20, 0, State{Role: Head, Head: 7, Hops: 0, Score: 2}),
	}
	st := a.Decide(self, nbrs, State{Role: Member, Head: 5, Hops: 2})
	if st.Head != 5 {
		t.Errorf("sticky affiliation broken: %+v", st)
	}
}

func TestPMCHeadEmergence(t *testing.T) {
	a := PassiveMultiHop{}
	self := nv(10, 15, 0, 20, 0)
	nbrs := []NeighborView{
		nbv(2, 10, 0, 20, 0, State{Role: Undecided, Score: 500}),
	}
	st := a.Decide(self, nbrs, State{Role: Undecided, Head: -1})
	if st.Role != Head {
		t.Errorf("state = %+v, want head emergence", st)
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (LowestID{}).Name() != "lowest-id" {
		t.Error("LowestID name")
	}
	if (MobilitySimilarity{}).Name() != "mobility" {
		t.Error("MobilitySimilarity name")
	}
	if (PassiveMultiHop{}).Name() != "pmc" {
		t.Error("PassiveMultiHop name")
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker()
	// Node 1: undecided -> member of 5 -> member of 7 -> undecided.
	tr.Record(0, 1, State{Role: Undecided, Head: -1}, State{Role: Member, Head: 5})
	tr.Record(10e9, 1, State{Role: Member, Head: 5}, State{Role: Member, Head: 7})
	tr.Record(30e9, 1, State{Role: Member, Head: 7}, State{Role: Undecided, Head: -1})
	// Node 2 becomes head and stays.
	tr.Record(0, 2, State{Role: Undecided, Head: -1}, State{Role: Head, Head: 2})
	tr.Finish(60e9)

	if tr.RoleChanges() != 4 {
		t.Errorf("RoleChanges = %d, want 4", tr.RoleChanges())
	}
	if tr.BecameHead() != 1 {
		t.Errorf("BecameHead = %d, want 1", tr.BecameHead())
	}
	// Head changes: node1 5->7, 7->-1 = 2 changes; node2 first record has
	// no prior head.
	if tr.HeadChanges() != 2 {
		t.Errorf("HeadChanges = %d, want 2", tr.HeadChanges())
	}
	// Node 1 clustered 0..30 s, node 2 clustered 0..60 s: mean 45 s.
	if got := tr.MeanClusteredSeconds(); got != 45 {
		t.Errorf("MeanClusteredSeconds = %v, want 45", got)
	}
	if got := tr.HeadChangesPerNodeMinute(2, 60e9); got != 1 {
		t.Errorf("HeadChangesPerNodeMinute = %v, want 1", got)
	}
	if got := tr.HeadChangesPerNodeMinute(0, 0); got != 0 {
		t.Errorf("degenerate normalization = %v", got)
	}
}

func TestTrackerEmptyMean(t *testing.T) {
	tr := NewTracker()
	if tr.MeanClusteredSeconds() != 0 {
		t.Error("empty tracker mean should be 0")
	}
}

// spy is MobilitySimilarity that keeps the neighbours of its last
// decision.
type spy struct {
	MobilitySimilarity
	last []NeighborView
}

func (s *spy) Decide(self NodeView, neighbors []NeighborView, cur State) State {
	s.last = neighbors
	return s.MobilitySimilarity.Decide(self, neighbors, cur)
}

const testBeaconPeriod = 200 * time.Millisecond

// fleet starts one beaconing node per position on k, each with a Runner
// of algo(i) re-deciding every second.
func fleet(tb testing.TB, k *sim.Kernel, pos []geo.Point, algo func(i int) Algorithm) []*Runner {
	tb.Helper()
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -500, Y: -500}, geo.Point{X: 500, Y: 500}), radio.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	runners := make([]*Runner, len(pos))
	for i, p := range pos {
		addr := vnet.Addr(i)
		m.UpdatePosition(addr, p)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{BeaconPeriod: testBeaconPeriod},
			func() (geo.Point, float64, float64) { return p, 10, 0 })
		if err != nil {
			tb.Fatal(err)
		}
		if runners[i], err = NewRunner(node, algo(i), time.Second, nil); err != nil {
			tb.Fatal(err)
		}
		if err := node.Start(); err != nil {
			tb.Fatal(err)
		}
	}
	return runners
}

// line is n positions 40 m apart along the x axis.
func line(n int) []geo.Point {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i) * 40}
	}
	return pos
}

func mobility(int) Algorithm { return MobilitySimilarity{} }

// TestRunnerTickAllocFree: a steady-state re-decision fills its views
// straight from the neighbor table's rows into the kernel's scratch and
// allocates nothing.
func TestRunnerTickAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	s := &spy{}
	runners := fleet(t, k, line(6), func(i int) Algorithm {
		if i == 3 {
			return s
		}
		return MobilitySimilarity{}
	})
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r := runners[3]
	if n := r.node.NumNeighbors(); n != 5 {
		t.Fatalf("runner hears %d neighbors, want 5", n)
	}
	settled := r.state
	if allocs := testing.AllocsPerRun(100, r.tick); allocs != 0 {
		t.Errorf("steady-state tick: %v allocs/op, want 0", allocs)
	}
	if r.state != settled || len(s.last) != 5 || !s.last[0].HasState {
		t.Errorf("tick read %d views (state %+v, was %+v), want 5 with advertised state", len(s.last), r.state, settled)
	}
}

// TestRunnersShareKernelScratch: every runner on a kernel hands Decide
// the same backing array, the kernel's; a runner on another kernel
// hands its own.
func TestRunnersShareKernelScratch(t *testing.T) {
	k1, k2 := sim.NewKernel(1), sim.NewKernel(1)
	spies := []*spy{{}, {}, {}}
	on1 := fleet(t, k1, line(3), func(i int) Algorithm {
		if i < 2 {
			return spies[i]
		}
		return MobilitySimilarity{}
	})
	on2 := fleet(t, k2, line(2), func(i int) Algorithm {
		if i == 0 {
			return spies[2]
		}
		return MobilitySimilarity{}
	})
	for _, k := range []*sim.Kernel{k1, k2} {
		if err := k.Run(3 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	base := make([]*NeighborView, len(spies))
	for i, r := range []*Runner{on1[0], on1[1], on2[0]} {
		r.tick()
		if len(spies[i].last) == 0 {
			t.Fatalf("runner %d decided with no neighbours", i)
		}
		base[i] = &spies[i].last[0]
	}
	if base[0] != base[1] {
		t.Errorf("runners on one kernel decide on %p and %p, want one shared buffer", base[0], base[1])
	}
	if base[2] == base[0] {
		t.Errorf("runners on two kernels share buffer %p", base[0])
	}
}

// TestStopWithdrawsExt: one beacon period after Stop, a neighbour's row
// for the stopped node carries no cluster state, so a stopped head
// cannot hold its members through sticky membership.
func TestStopWithdrawsExt(t *testing.T) {
	k := sim.NewKernel(1)
	runners := fleet(t, k, line(2), mobility)
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	ext := func() any {
		for _, row := range runners[1].node.Rows() {
			if row.Beacon.From == 0 {
				return row.Beacon.Ext
			}
		}
		t.Fatal("node 1 has no row for node 0")
		return nil
	}
	if _, ok := ext().(Ext); !ok {
		t.Fatal("before Stop: node 0's beacons carry no cluster extension")
	}
	runners[0].Stop()
	// One period, plus the frame's time on air.
	if err := k.Run(k.Now() + testBeaconPeriod + 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e := ext(); e != nil {
		t.Errorf("after Stop node 0 still advertises %+v", e)
	}
}

// BenchmarkRunnerTick re-decides round-robin over 100 runners that all
// hear each other (a 10 × 10 grid 10 m apart), tables settled.
func BenchmarkRunnerTick(b *testing.B) {
	k := sim.NewKernel(1)
	pos := make([]geo.Point, 100)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%10) * 10, Y: float64(i/10) * 10}
	}
	runners := fleet(b, k, pos, mobility)
	if err := k.Run(3 * time.Second); err != nil {
		b.Fatal(err)
	}
	// Channel load drops a few beacons, so not every row is fresh.
	if n := runners[0].node.NumNeighbors(); n < 90 {
		b.Fatalf("runner hears %d neighbours, want about 99", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runners[i%len(runners)].tick()
	}
}
