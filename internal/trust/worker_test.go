package trust

import (
	"math"
	"testing"
	"time"

	"vcloud/internal/sim"
)

func TestWorkerSetScores(t *testing.T) {
	var now sim.Time
	ws, err := NewWorkerSet(func() sim.Time { return now }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := ws.Score(1); got != 0.5 {
		t.Errorf("unknown worker score = %v, want the 0.5 prior", got)
	}
	ws.Good(1, 1)
	ws.Good(1, 1)
	ws.Bad(2, 1)
	if got := ws.Score(1); math.Abs(got-0.75) > 1e-9 { // (2+1)/(2+2)
		t.Errorf("score(1) = %v, want 0.75", got)
	}
	if got := ws.Score(2); math.Abs(got-1.0/3) > 1e-9 { // (0+1)/(1+2)
		t.Errorf("score(2) = %v, want 1/3", got)
	}
	if ws.Known() != 2 {
		t.Errorf("known = %d, want 2", ws.Known())
	}
	// Zero or negative weight is a no-op, not a panic.
	ws.Good(1, 0)
	ws.Bad(1, -3)
	if got := ws.Score(1); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("score(1) after no-op evidence = %v, want 0.75", got)
	}
}

func TestWorkerSetDecayRedeems(t *testing.T) {
	var now sim.Time
	ws, err := NewWorkerSet(func() sim.Time { return now }, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ws.Bad(7, 4) // score (0+1)/(4+2) = 1/6
	before := ws.Score(7)
	now += 10 * time.Second // one half-life: bad 4 -> 2, score 1/4
	mid := ws.Score(7)
	if mid <= before {
		t.Errorf("score did not recover after one half-life: %v -> %v", before, mid)
	}
	now += 10 * 10 * time.Second // ten more half-lives: evidence ~gone
	late := ws.Score(7)
	if math.Abs(late-0.5) > 0.01 {
		t.Errorf("score after long idle = %v, want drift back to the 0.5 prior", late)
	}
}

// TestScoreIdempotentWithinInstant pins the read contract one-pass
// replica placement relies on: a Score read writes its decay back, a
// second read at the same instant returns the same bits and leaves the
// record as it was, and a read at a later instant decays it exactly once.
func TestScoreIdempotentWithinInstant(t *testing.T) {
	const halflife = 10 * time.Second
	var now sim.Time
	ws, err := NewWorkerSet(func() sim.Time { return now }, halflife)
	if err != nil {
		t.Fatal(err)
	}
	ws.Good(1, 3)
	ws.Bad(1, 2)
	now = 7300 * time.Millisecond
	first := ws.Score(1)
	rec := *ws.recs[1]
	if rec.last != now {
		t.Fatalf("a read at %v left the record stamped %v: the decay was not written back", now, rec.last)
	}
	for i := 0; i < 3; i++ {
		if again := ws.Score(1); math.Float64bits(again) != math.Float64bits(first) {
			t.Fatalf("read %d at one instant = %v, the first read %v", i+2, again, first)
		}
		if *ws.recs[1] != rec {
			t.Fatalf("read %d at one instant changed the record %+v to %+v", i+2, rec, *ws.recs[1])
		}
	}
	now += 4100 * time.Millisecond
	f := math.Exp2(-float64(4100*time.Millisecond) / float64(halflife))
	want := workerRec{good: rec.good * f, bad: rec.bad * f, last: now}
	later := ws.Score(1)
	if *ws.recs[1] != want {
		t.Fatalf("a later read left %+v, want one decay step to %+v", *ws.recs[1], want)
	}
	if w := (want.good + 1) / (want.good + want.bad + 2); math.Float64bits(later) != math.Float64bits(w) {
		t.Errorf("later read = %v, want %v", later, w)
	}
	if again := ws.Score(1); math.Float64bits(again) != math.Float64bits(later) || *ws.recs[1] != want {
		t.Errorf("a second read at the later instant moved the score to %v or the record to %+v", again, *ws.recs[1])
	}
}

func TestWorkerSetBelow(t *testing.T) {
	var now sim.Time
	ws, err := NewWorkerSet(func() sim.Time { return now }, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws.Bad(5, 3)  // 0.2
	ws.Bad(3, 3)  // 0.2
	ws.Good(9, 5) // ~0.86
	got := ws.Below(0.4)
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Below(0.4) = %v, want [3 5] in address order", got)
	}
	if snap := ws.Snapshot(); len(snap) != 3 || snap[9] < 0.8 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestWorkerSetValidation(t *testing.T) {
	if _, err := NewWorkerSet(nil, 0); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewWorkerSet(func() sim.Time { return 0 }, -time.Second); err == nil {
		t.Error("negative halflife accepted")
	}
}
