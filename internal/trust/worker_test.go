package trust

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
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

// TestScoreIsAPureRead: trust read between evidence at other instants
// leaves every later score bit-identical to a set nobody read. Two sets
// take the same evidence at the same instants; one is also read at
// instants in between, the other only where both are compared.
func TestScoreIsAPureRead(t *testing.T) {
	const halflife = 10 * time.Second
	var now sim.Time
	quiet, err := NewWorkerSet(func() sim.Time { return now }, halflife)
	if err != nil {
		t.Fatal(err)
	}
	read, err := NewWorkerSet(func() sim.Time { return now }, halflife)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200; step++ {
		now += sim.Time(1+rng.Intn(3000)) * time.Millisecond
		a := vnet.Addr(rng.Intn(4))
		switch w := rng.Float64() * 3; rng.Intn(3) {
		case 0:
			quiet.Good(a, w)
			read.Good(a, w)
		case 1:
			quiet.Bad(a, w)
			read.Bad(a, w)
		case 2:
			for b := vnet.Addr(0); b < 4; b++ {
				if g, r := quiet.Score(b), read.Score(b); math.Float64bits(g) != math.Float64bits(r) {
					t.Fatalf("step %d at %v: worker %d scores %v, %v after reads in between", step, now, b, r, g)
				}
			}
		}
		// The extra reads, at instants only the read set sees.
		now += sim.Time(rng.Intn(700)) * time.Millisecond
		for range rng.Intn(3) {
			read.Score(vnet.Addr(rng.Intn(4)))
		}
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
