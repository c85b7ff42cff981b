package faults

import (
	"math/rand"
	"testing"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
)

// bareScenario is a kernel and a medium with nodes 0..len(pos)-1 placed at
// pos: no mobility and no receive handlers, so a frame's fault verdicts
// are taken and nothing is ever scheduled.
func bareScenario(t testing.TB, seed int64, pos []geo.Point) *scenario.Scenario {
	t.Helper()
	k := sim.NewKernel(seed)
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 100, Y: 100}), radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pos {
		m.UpdatePosition(radio.NodeID(i), p)
	}
	return &scenario.Scenario{Kernel: k, Medium: m}
}

// frameDropped sends one unicast frame and reports whether the faults
// dropped it, read off the injector's drop count.
func frameDropped(s *scenario.Scenario, in *Injector, from, to radio.NodeID) bool {
	before := in.Stats().DroppedFrames
	s.Medium.Send(from, to, 100, nil)
	return in.Stats().DroppedFrames > before
}

// pairFilter is the fault check as the injector made it before the
// medium owned a fault table: one filter call per (sender, receiver)
// pair, looking both positions up on every call.
type pairFilter struct {
	m          *radio.Medium
	dead       map[radio.NodeID]bool
	isolations []map[radio.NodeID]bool
	partitions []disc
	loss       float64
	rng        *rand.Rand
	dropped    uint64
}

type disc struct {
	center geo.Point
	radius float64
}

func (p *pairFilter) cut(from, to radio.NodeID) bool {
	if p.dead[from] || p.dead[to] {
		return true
	}
	for _, set := range p.isolations {
		if set[from] != set[to] {
			return true
		}
	}
	fp, fok := p.m.Position(from)
	tp, tok := p.m.Position(to)
	if !fok || !tok {
		return false
	}
	for _, r := range p.partitions {
		if (fp.Dist(r.center) <= r.radius) != (tp.Dist(r.center) <= r.radius) {
			return true
		}
	}
	return false
}

func (p *pairFilter) blocked(from, to radio.NodeID) bool {
	if p.cut(from, to) || (p.loss > 0 && p.rng.Float64() < p.loss) {
		p.dropped++
		return true
	}
	return false
}

// verdictCase is a set of nodes and the faults installed over them.
type verdictCase struct {
	name       string
	pos        []geo.Point
	dead       []int
	isolations [][]int // each set's first entry is the isolated node, the rest its kept peers
	partitions []disc
	loss       float64
}

// checkVerdicts installs c through an injector and on the per-pair
// model, then requires the same verdict for every ordered pair, the same
// drop count and the same loss-stream position; with loss off, Cut must
// agree with the frame path on every pair, and with the model for a
// node that has no position.
func checkVerdicts(t *testing.T, seed int64, c verdictCase) {
	t.Helper()
	s := bareScenario(t, seed, c.pos)
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	model := &pairFilter{m: s.Medium, dead: map[radio.NodeID]bool{}, rng: s.Kernel.NewStream("faults")}
	for _, d := range c.dead {
		in.CrashNode(radio.NodeID(d))
		model.dead[radio.NodeID(d)] = true
	}
	for _, set := range c.isolations {
		members := map[radio.NodeID]bool{}
		for _, id := range set {
			members[radio.NodeID(id)] = true
		}
		in.Apply(Event{Kind: Isolate, Target: set[0], Keep: set[1:]})
		model.isolations = append(model.isolations, members)
	}
	for _, d := range c.partitions {
		in.Apply(Event{Kind: Partition, Center: d.center, Radius: d.radius})
		model.partitions = append(model.partitions, d)
	}
	in.Apply(Event{Kind: Loss, Prob: c.loss})
	model.loss = c.loss

	n := radio.NodeID(len(c.pos))
	pairs := func(fn func(from, to radio.NodeID)) {
		for from := radio.NodeID(0); from < n; from++ {
			for to := radio.NodeID(0); to < n; to++ {
				if from != to {
					fn(from, to)
				}
			}
		}
	}
	pairs(func(from, to radio.NodeID) {
		if got, want := frameDropped(s, in, from, to), model.blocked(from, to); got != want {
			t.Fatalf("%s: frame %d→%d dropped %v, per-pair model %v", c.name, from, to, got, want)
		}
	})
	if got, want := in.Stats().DroppedFrames, model.dropped; got != want {
		t.Errorf("%s: DroppedFrames %d, model %d", c.name, got, want)
	}
	// The loss streams must stand at the same place: certain-coin frames
	// between two nodes nothing cuts would diverge within a few draws.
	in.Apply(Event{Kind: Loss, Prob: 0.5})
	model.loss = 0.5
	free := [2]radio.NodeID{n, n + 1}
	s.Medium.UpdatePosition(free[0], geo.Point{X: 90, Y: 90})
	s.Medium.UpdatePosition(free[1], geo.Point{X: 91, Y: 90})
	if !model.cut(free[0], free[1]) {
		for i := 0; i < 32; i++ {
			if got, want := frameDropped(s, in, free[0], free[1]), model.blocked(free[0], free[1]); got != want {
				t.Fatalf("%s: loss stream diverged %d draws after the pairs", c.name, i)
			}
		}
	}
	in.Apply(Event{Kind: Loss, Prob: 0})
	model.loss = 0
	pairs(func(from, to radio.NodeID) {
		cut, frame, want := in.Cut(from, to), frameDropped(s, in, from, to), model.cut(from, to)
		if cut != frame || cut != want {
			t.Fatalf("%s: pair %d→%d: Cut %v, frame dropped %v, model %v", c.name, from, to, cut, frame, want)
		}
	})
	const nowhere = radio.NodeID(1000) // no position: only crashes and isolations can cut it
	for from := radio.NodeID(0); from < n; from++ {
		if got, want := in.Cut(from, nowhere), model.cut(from, nowhere); got != want {
			t.Fatalf("%s: Cut(%d, positionless) = %v, model %v", c.name, from, got, want)
		}
	}
}

// TestFrameVerdicts is FuzzFrameVerdicts' table-driven twin: the medium's
// per-frame fault verdicts against the per-pair filter on hand-picked
// layouts, points exactly on a partition rim among them.
func TestFrameVerdicts(t *testing.T) {
	rim := []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 5, Y: 0}, {X: 6, Y: 0}, {X: -4, Y: -3}, {X: 0, Y: 5.000001}}
	for _, c := range []verdictCase{
		{name: "no faults", pos: rim},
		{name: "rim", pos: rim, partitions: []disc{{geo.Point{}, 5}}},
		{name: "crashed sender and receiver", pos: rim, dead: []int{1, 4}},
		{name: "isolation with kept peers", pos: rim, isolations: [][]int{{0, 2, 5}}},
		{name: "overlapping discs", pos: rim, partitions: []disc{{geo.Point{}, 5}, {geo.Point{X: 3, Y: 0}, 3}}},
		{name: "certain loss", pos: rim, loss: 1},
		// (7.28, 12.74) is inside by Dist but outside by a squared compare.
		{name: "rim where squares round apart", pos: []geo.Point{{X: 0, Y: 0}, {X: 7.28, Y: 12.74}, {X: 20, Y: 0}}, partitions: []disc{{geo.Point{}, 14.67330910190336}}},
		{name: "everything", pos: rim, dead: []int{3}, isolations: [][]int{{1}}, partitions: []disc{{geo.Point{}, 5}, {geo.Point{X: 6, Y: 0}, 1}}, loss: 0.5},
	} {
		checkVerdicts(t, 1, c)
	}
}

// FuzzFrameVerdicts decodes arbitrary bytes into nodes on a small integer
// grid — so Pythagorean offsets land exactly on integer radii — a crashed
// set, up to two isolations, up to three partitions and a loss level, and
// runs checkVerdicts on them.
func FuzzFrameVerdicts(f *testing.F) {
	f.Add([]byte{6, 0, 0, 3, 4, 5, 0, 6, 0, 4, 3, 0, 5, 0x02, 1, 0x05, 1, 0, 0, 5, 2})
	f.Add([]byte{4, 1, 1, 2, 2, 9, 9, 4, 5, 0, 0, 0, 2, 3, 3, 2, 6, 6, 4, 3})
	f.Add([]byte{12, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 0xff, 2, 0x0f, 0xf0, 3, 5, 5, 5, 0, 0, 7, 10, 10, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		c := verdictCase{name: "fuzz"}
		n := 2 + next()%11
		for i := 0; i < n; i++ {
			c.pos = append(c.pos, geo.Point{X: float64(next()%16 - 4), Y: float64(next()%16 - 4)})
		}
		set := func(mask int) []int {
			var ids []int
			for i := 0; i < n && i < 8; i++ {
				if mask&(1<<i) != 0 {
					ids = append(ids, i)
				}
			}
			return ids
		}
		c.dead = set(next())
		for i := next() % 3; i > 0; i-- {
			if ids := set(next()); len(ids) > 0 {
				c.isolations = append(c.isolations, ids)
			}
		}
		for i := next() % 4; i > 0; i-- {
			c.partitions = append(c.partitions, disc{geo.Point{X: float64(next()%12 - 4), Y: float64(next()%12 - 4)}, float64(1 + next()%10)})
		}
		c.loss = []float64{0, 0.25, 0.5, 1}[next()%4]
		checkVerdicts(t, int64(next()), c)
	})
}
