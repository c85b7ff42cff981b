package radio

import (
	"math/rand"
	"slices"

	"vcloud/internal/geo"
)

// FaultTable is the medium's fault state: crashed nodes, isolated node
// sets, disc partitions and a frame-loss probability with its own random
// stream. The fault injector (package faults) writes it; Send reads it as
// data, taking the sender's side of every fault once per frame and then
// judging each receiver from the position its range query returned.
//
// A frame is dropped when an end is crashed, when it crosses the boundary
// of an isolated set or of a partition disc, or — only if none of those
// cut it — by a loss draw. The checks run in that order, so loss draws,
// and with them the stream, are reproducible.
type FaultTable struct {
	dead       map[NodeID]bool
	isolations []isolation // install order; a heal removes its entry by id
	partitions []partition
	nextID     int
	loss       float64
	rng        *rand.Rand // the kernel's "faults" stream, drawn only by loss
	dropped    uint64

	// The sender's side of every fault, set by from for the frame being
	// judged: crashed or not, inside each isolated set, inside each disc.
	srcDead  bool
	srcPosOK bool
	srcIso   []bool
	srcIn    []bool
}

type isolation struct {
	id  int
	set map[NodeID]bool
}

type partition struct {
	id     int
	center geo.Point
	radius float64
}

// contains is the partition's membership test. It compares distances, not
// squared distances, so points on the rim land where they always have.
func (p partition) contains(q geo.Point) bool { return q.Dist(p.center) <= p.radius }

// Crash silences a node: every frame from or to it is dropped.
func (t *FaultTable) Crash(id NodeID) {
	if t.dead == nil {
		t.dead = make(map[NodeID]bool)
	}
	t.dead[id] = true
}

// Recover undoes Crash.
func (t *FaultTable) Recover(id NodeID) { delete(t.dead, id) }

// Isolate cuts every frame crossing the boundary of set and returns the
// heal function (safe to call more than once).
func (t *FaultTable) Isolate(set map[NodeID]bool) (heal func()) {
	id := t.newID()
	t.isolations = append(t.isolations, isolation{id, set})
	return func() {
		t.isolations = slices.DeleteFunc(t.isolations, func(iso isolation) bool { return iso.id == id })
	}
}

// Partition cuts every frame crossing the rim of the disc and returns the
// heal function (safe to call more than once).
func (t *FaultTable) Partition(center geo.Point, radius float64) (heal func()) {
	id := t.newID()
	t.partitions = append(t.partitions, partition{id, center, radius})
	return func() {
		t.partitions = slices.DeleteFunc(t.partitions, func(p partition) bool { return p.id == id })
	}
}

func (t *FaultTable) newID() int {
	t.nextID++
	return t.nextID
}

// SetLoss sets the probability that a frame no other fault cuts is
// dropped anyway (0 disables).
func (t *FaultTable) SetLoss(p float64) { t.loss = p }

// Dropped counts the receptions the faults suppressed.
func (t *FaultTable) Dropped() uint64 { return t.dropped }

// Reset clears every fault; the drop count and the loss stream's position
// are kept.
func (t *FaultTable) Reset() {
	clear(t.dead)
	t.isolations = t.isolations[:0]
	t.partitions = t.partitions[:0]
	t.loss = 0
}

// Faults returns the medium's fault table.
func (m *Medium) Faults() *FaultTable { return &m.faults }

// Cut reports whether a deterministic fault — a crash on either end, an
// isolation or a partition rim between them — currently severs frames
// from one node to another. It is the frame path's own predicate and
// never draws from the loss stream, so layers above can probe
// reachability without perturbing it.
//
//vcloudlint:hotpath the storage views probe it once per member per placement, read and repaired key
func (m *Medium) Cut(from, to NodeID) bool {
	t := &m.faults
	var fp, tp geo.Point
	var fok, tok bool
	if len(t.partitions) > 0 {
		fp, fok = m.index.Position(int32(from))
		tp, tok = m.index.Position(int32(to))
	}
	t.from(from, fp, fok)
	return t.cuts(to, tp, tok)
}

// active reports whether any fault is installed.
func (t *FaultTable) active() bool {
	return len(t.dead) > 0 || len(t.isolations) > 0 || len(t.partitions) > 0 || t.loss > 0
}

// from takes src's side of every fault, for the receivers cuts and drops
// judge next; ok is false when src has no position, which no partition
// can then cut.
//
//vcloudlint:hotpath once per transmitted frame while faults are installed
func (t *FaultTable) from(src NodeID, pos geo.Point, ok bool) {
	t.srcDead = t.dead[src]
	t.srcPosOK = ok
	t.srcIso = t.srcIso[:0]
	for _, iso := range t.isolations {
		t.srcIso = append(t.srcIso, iso.set[src])
	}
	t.srcIn = t.srcIn[:0]
	if ok {
		for _, p := range t.partitions {
			t.srcIn = append(t.srcIn, p.contains(pos))
		}
	}
}

// cuts reports whether a deterministic fault severs the sender from dst
// at pos (ok false: dst has no position). It is the one predicate behind
// both the frame path and Medium.Cut.
//
//vcloudlint:hotpath once per reception candidate while faults are installed
func (t *FaultTable) cuts(dst NodeID, pos geo.Point, ok bool) bool {
	if t.srcDead || t.dead[dst] {
		return true
	}
	for i, iso := range t.isolations {
		if t.srcIso[i] != iso.set[dst] {
			return true
		}
	}
	if t.srcPosOK && ok {
		for i, p := range t.partitions {
			if t.srcIn[i] != p.contains(pos) {
				return true
			}
		}
	}
	return false
}

// drops reports whether the frame is lost on its way to dst at pos:
// a deterministic cut, or else a loss draw. Every drop is counted.
//
//vcloudlint:hotpath once per reception candidate while faults are installed
func (t *FaultTable) drops(dst NodeID, pos geo.Point) bool {
	if t.cuts(dst, pos, true) || (t.loss > 0 && t.rng.Float64() < t.loss) {
		t.dropped++
		return true
	}
	return false
}
