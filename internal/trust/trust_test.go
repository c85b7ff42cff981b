package trust

import (
	"math/rand"
	"testing"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
)

func tok(b byte) Token { return Token{b} }

func report(claim bool, x, y float64, path uint64, at sim.Time) Report {
	return Report{
		Reporter:    Token{byte(path), byte(at / 1e6)},
		Claim:       claim,
		ReporterPos: geo.Point{X: x, Y: y},
		PathID:      path,
	}
}

func TestMajorityVote(t *testing.T) {
	g := &Group{Event: Event{Pos: geo.Point{X: 0, Y: 0}}}
	v := MajorityVote{}
	if got := v.Score(g); got != 0.5 {
		t.Errorf("empty score = %v, want 0.5", got)
	}
	for i := 0; i < 7; i++ {
		g.Reports = append(g.Reports, report(true, 0, 0, uint64(i), 0))
	}
	for i := 0; i < 3; i++ {
		g.Reports = append(g.Reports, report(false, 0, 0, uint64(10+i), 0))
	}
	if got := v.Score(g); got != 0.7 {
		t.Errorf("score = %v, want 0.7", got)
	}
}

func TestDistanceWeightedFavorsNearWitnesses(t *testing.T) {
	// Three liars far away vs two honest witnesses next to the event:
	// plain voting is fooled, distance weighting is not.
	g := &Group{Event: Event{Pos: geo.Point{X: 0, Y: 0}}}
	for i := 0; i < 3; i++ {
		g.Reports = append(g.Reports, report(false, 800, 0, uint64(i), 0)) // far liars deny
	}
	g.Reports = append(g.Reports, report(true, 10, 0, 7, 0)) // near witnesses confirm
	g.Reports = append(g.Reports, report(true, 20, 0, 8, 0))

	vote := MajorityVote{}.Score(g)
	bayes := DistanceWeighted{}.Score(g)
	if vote >= 0.5 {
		t.Errorf("voting should be fooled here, got %v", vote)
	}
	if bayes <= 0.5 {
		t.Errorf("distance weighting should resist, got %v", bayes)
	}
}

func TestDistanceWeightedSymmetric(t *testing.T) {
	g := &Group{Event: Event{Pos: geo.Point{}}}
	g.Reports = append(g.Reports, report(true, 50, 0, 1, 0))
	g.Reports = append(g.Reports, report(false, 50, 0, 2, 0))
	if got := (DistanceWeighted{}).Score(g); got != 0.5 {
		t.Errorf("balanced evidence score = %v, want 0.5", got)
	}
}

func TestPathDiverseDiscountsEchoes(t *testing.T) {
	// 10 false reports all over one path (an amplified lie) vs 3 true
	// reports over distinct paths.
	g := &Group{Event: Event{Pos: geo.Point{}}}
	for i := 0; i < 10; i++ {
		g.Reports = append(g.Reports, report(false, 10, 0, 42, sim.Time(i)))
	}
	for i := 0; i < 3; i++ {
		g.Reports = append(g.Reports, report(true, 10, 0, uint64(100+i), 0))
	}
	plain := MajorityVote{}.Score(g)
	diverse := PathDiverse{Inner: MajorityVote{}}.Score(g)
	if plain >= 0.5 {
		t.Errorf("plain voting should be fooled, got %v", plain)
	}
	if diverse <= 0.5 {
		t.Errorf("path-diverse should resist amplification, got %v", diverse)
	}
	if (PathDiverse{Inner: MajorityVote{}}).Name() != "voting+path" {
		t.Error("name wrong")
	}
	if (PathDiverse{}).Name() != "path-diverse" {
		t.Error("nil-inner name wrong")
	}
	// Nil inner defaults to voting.
	if s := (PathDiverse{}).Score(g); s <= 0.5 {
		t.Errorf("default inner score = %v", s)
	}
}

func TestReputationLearnsWithStableIdentities(t *testing.T) {
	rs := NewReputation()
	honest, liar := tok(1), tok(2)
	// Feedback loop: honest correct 10 times, liar wrong 10 times.
	for i := 0; i < 10; i++ {
		rs.Feedback(honest, true)
		rs.Feedback(liar, false)
	}
	g := &Group{Event: Event{Pos: geo.Point{}}}
	g.Reports = append(g.Reports,
		Report{Reporter: honest, Claim: true},
		Report{Reporter: liar, Claim: false},
	)
	if got := rs.Score(g); got <= 0.5 {
		t.Errorf("reputation with stable ids should trust the honest reporter, got %v", got)
	}
	if rs.Known() != 2 {
		t.Errorf("Known = %d", rs.Known())
	}
}

func TestReputationUselessUnderTokenRotation(t *testing.T) {
	// The paper's §III.D claim: with rotating pseudonyms, reputation
	// never accumulates — every reporter looks fresh (0.5) and the
	// reputation validator degenerates to plain voting.
	rs := NewReputation()
	rng := rand.New(rand.NewSource(1))
	// Lots of past feedback for tokens never seen again.
	for i := 0; i < 100; i++ {
		var t Token
		rng.Read(t[:])
		rs.Feedback(t, true)
	}
	g := &Group{Event: Event{Pos: geo.Point{}}}
	for i := 0; i < 4; i++ {
		var tk Token
		rng.Read(tk[:])
		g.Reports = append(g.Reports, Report{Reporter: tk, Claim: false}) // fresh liars
	}
	var tk Token
	rng.Read(tk[:])
	g.Reports = append(g.Reports, Report{Reporter: tk, Claim: true}) // fresh honest
	score := rs.Score(g)
	vote := MajorityVote{}.Score(g)
	if score != vote {
		t.Errorf("with all-fresh tokens reputation (%v) should equal voting (%v)", score, vote)
	}
	if score >= 0.5 {
		t.Logf("as expected, reputation is fooled: %v", score)
	}
}

func TestDecide(t *testing.T) {
	if real, unk := Decide(0.9, 0.1); !real || unk {
		t.Error("high score should decide real")
	}
	if real, unk := Decide(0.1, 0.1); real || unk {
		t.Error("low score should decide fake")
	}
	if _, unk := Decide(0.55, 0.1); !unk {
		t.Error("band score should be unknown")
	}
}

func TestValidatorNames(t *testing.T) {
	if (MajorityVote{}).Name() != "voting" {
		t.Error("voting name")
	}
	if (DistanceWeighted{}).Name() != "bayesian" {
		t.Error("bayesian name")
	}
	if NewReputation().Name() != "reputation" {
		t.Error("reputation name")
	}
}
