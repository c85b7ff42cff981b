package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"vcloud/internal/attack"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/trust"
	"vcloud/internal/vnet"
)

// E9Trust measures message-content validation accuracy against the
// attacker fraction, for every validator in internal/trust. It
// operationalizes §III.D: sender reputation fails under ephemeral,
// rotating identities, while content-centric validators (voting,
// distance-weighted Bayesian, path-diversity) survive; an additional
// "reputation(stable-ids)" arm shows reputation *would* work if
// identities persisted — exactly the paper's diagnosis.
func E9Trust(cfg Config) (*Result, error) {
	attackerFracs := []float64{0.1, 0.3}
	if !cfg.Quick {
		attackerFracs = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	events := pick(cfg, 200, 1000)
	reportersPerEvent := 12

	table := metrics.NewTable(
		"E9 — Trust validators vs attacker fraction",
		"validator", "attackers", "accuracy", "undecided",
	)
	values := map[string]float64{}

	type arm struct {
		name      string
		mk        func() trust.Validator
		stableIDs bool
		feedback  bool
	}
	arms := []arm{
		{"voting", func() trust.Validator { return trust.MajorityVote{} }, false, false},
		{"bayesian", func() trust.Validator { return trust.DistanceWeighted{} }, false, false},
		{"bayesian+path", func() trust.Validator { return trust.PathDiverse{Inner: trust.DistanceWeighted{}} }, false, false},
		{"reputation(rotating)", nil, false, true},
		{"reputation(stable)", nil, true, true},
	}

	type sweep struct {
		a    arm
		frac float64
	}
	var sweeps []sweep
	for _, a := range arms {
		for _, frac := range attackerFracs {
			sweeps = append(sweeps, sweep{a, frac})
		}
	}
	err := assemble(cfg, table, values, len(sweeps), func(idx int, p *point) error {
		a, frac := sweeps[idx].a, sweeps[idx].frac
		{
			rng := rand.New(rand.NewSource(cfg.Seed))
			var validator trust.Validator
			var reput *trust.Reputation
			if a.mk != nil {
				validator = a.mk()
			} else {
				reput = trust.NewReputation()
				validator = reput
			}
			nAttack := int(float64(reportersPerEvent) * frac)
			nHonest := reportersPerEvent - nAttack

			// Stable identities for the stable-reputation arm.
			stableTokens := make([]trust.Token, reportersPerEvent)
			for i := range stableTokens {
				rng.Read(stableTokens[i][:])
			}

			correct, undecided := 0, 0
			for e := 0; e < events; e++ {
				eventReal := rng.Float64() < 0.5
				eventPos := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
				g := &trust.Group{Event: trust.Event{Type: "hazard", Pos: eventPos}}
				tokenAt := func(i int) trust.Token {
					if a.stableIDs {
						return stableTokens[i]
					}
					var t trust.Token
					rng.Read(t[:]) // rotating pseudonym: fresh every event
					return t
				}
				// Honest reporters: near the event, truthful with 10%
				// observation noise, each over its own path.
				for i := 0; i < nHonest; i++ {
					claim := eventReal
					if rng.Float64() < 0.1 {
						claim = !claim
					}
					off := geo.Point{X: eventPos.X + rng.Float64()*100 - 50, Y: eventPos.Y + rng.Float64()*100 - 50}
					g.Reports = append(g.Reports, trust.Report{
						Reporter: tokenAt(i), Claim: claim, ReporterPos: off,
						PathID: uint64(1000 + i),
					})
				}
				// Attackers: coordinated lie, farther away, amplified
				// over a single shared path (Sybil-flavoured).
				for i := 0; i < nAttack; i++ {
					off := geo.Point{X: eventPos.X + 300 + rng.Float64()*200, Y: eventPos.Y}
					g.Reports = append(g.Reports, trust.Report{
						Reporter: tokenAt(nHonest + i), Claim: !eventReal, ReporterPos: off,
						PathID: 7, // shared path
					})
					// Amplification: each attacker echoes twice more.
					for k := 0; k < 2; k++ {
						g.Reports = append(g.Reports, trust.Report{
							Reporter: tokenAt(nHonest + i), Claim: !eventReal, ReporterPos: off,
							PathID: 7,
						})
					}
				}
				score := validator.Score(g)
				decided, unknown := trust.Decide(score, 0.05)
				switch {
				case unknown:
					undecided++
				case decided == eventReal:
					correct++
				}
				// Ground truth feedback for reputation arms.
				if a.feedback && reput != nil {
					for _, r := range g.Reports {
						reput.Feedback(r.Reporter, r.Claim == eventReal)
					}
				}
			}
			acc := float64(correct) / float64(events)
			und := float64(undecided) / float64(events)
			p.addRow(a.name, metrics.Pct(frac), metrics.Pct(acc), metrics.Pct(und))
			key := fmt.Sprintf("%s/%.1f", a.name, frac)
			p.set(key+"/accuracy", acc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E9", Title: "trust", Table: table, Values: values}, nil
}

// E10Attacks is the security drill: each §III network-layer attack runs
// against its defense and the table reports the attack's effect with and
// without the defense in place. The four drills decompose into eight
// independent runs (each with its own kernel), so they parallelize like
// any other sweep; the table is assembled from the collected results in
// drill order.
func E10Attacks(cfg Config) (*Result, error) {
	table := metrics.NewTable(
		"E10 — Attack/defense drill (§III threat list)",
		"attack", "metric", "undefended", "defended",
	)
	values := map[string]float64{}

	// --- Eavesdropping / tracking: beacon rate is the defense knob.
	track := func(beaconPeriod sim.Time) float64 {
		net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 2000, Segments: 2, SpeedLimit: 25, Lanes: 2})
		if err != nil {
			return -1
		}
		s, err := scenario.New(scenario.Spec{
			Seed: cfg.Seed, Network: net,
			NumVehicles: pick(cfg, 15, 30), BeaconPeriod: beaconPeriod,
		})
		if err != nil {
			return -1
		}
		spy, err := attack.NewEavesdropper(s.Medium, radio.NodeID(1<<24), geo.Point{X: 1000, Y: 15})
		if err != nil {
			return -1
		}
		if err := s.Start(); err != nil {
			return -1
		}
		if err := s.RunFor(sim.Time(pick(cfg, 30, 90)) * time.Second); err != nil {
			return -1
		}
		acc, links := spy.TrackingAccuracy(30, 3*time.Second)
		if links == 0 {
			return 0
		}
		return acc
	}

	// --- DoS flood: channel delivery share with and without the flood.
	dos := func(flood bool) float64 {
		net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 2000, Segments: 2, SpeedLimit: 25, Lanes: 2})
		if err != nil {
			return -1
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: pick(cfg, 15, 30)})
		if err != nil {
			return -1
		}
		if flood {
			if _, err := attack.NewFlooder(s.Kernel, s.Medium, radio.NodeID(1<<24), geo.Point{X: 1000, Y: 15}, 2000, 1500); err != nil {
				return -1
			}
		}
		if err := s.Start(); err != nil {
			return -1
		}
		if err := s.RunFor(sim.Time(pick(cfg, 20, 60)) * time.Second); err != nil {
			return -1
		}
		st := s.Medium.Stats()
		total := st.Delivered + st.LostLoad
		if total == 0 {
			return 0
		}
		return float64(st.Delivered) / float64(total)
	}

	// --- Suppression: delivery through an honest vs compromised relay.
	supp := func(compromised bool) float64 {
		k := sim.NewKernel(cfg.Seed)
		bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
		m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
		if err != nil {
			return -1
		}
		nodes, err := chainNodes(k, m, 3, 140)
		if err != nil {
			return -1
		}
		got := 0
		final := func(msg vnet.Message, relayer vnet.Addr) { got++ }
		relay := func(msg vnet.Message, relayer vnet.Addr) {
			nodes[1].Forward(nodes[2].Addr(), msg)
		}
		nodes[2].Handle("data", final)
		if compromised {
			rng := rand.New(rand.NewSource(cfg.Seed))
			if _, err := attack.InstallSuppressor(nodes[1], "data", relay, 0.6, 0, rng.Float64); err != nil {
				return -1
			}
		} else {
			nodes[1].Handle("data", relay)
		}
		const n = 50
		for i := 0; i < n; i++ {
			i := i
			k.At(sim.Time(i)*100*time.Millisecond, func() {
				nodes[0].SendTo(nodes[1].Addr(), nodes[0].NewMessage(nodes[2].Addr(), "data", 200, 4, i))
			})
		}
		if err := k.Run(time.Minute); err != nil {
			return -1
		}
		return float64(got) / n
	}

	// --- Sybil amplification vs path-diverse trust (analytic replay of
	// the E9 mechanics at a fixed fraction; pure computation, no kernel).
	sybil := func(pathDiverse bool) float64 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		var v trust.Validator = trust.MajorityVote{}
		if pathDiverse {
			v = trust.PathDiverse{Inner: trust.DistanceWeighted{}}
		}
		events := pick(cfg, 200, 600)
		correct := 0
		for e := 0; e < events; e++ {
			eventReal := rng.Float64() < 0.5
			pos := geo.Point{X: 500, Y: 500}
			g := &trust.Group{Event: trust.Event{Type: "hazard", Pos: pos}}
			for i := 0; i < 5; i++ { // honest
				claim := eventReal
				if rng.Float64() < 0.1 {
					claim = !claim
				}
				g.Reports = append(g.Reports, trust.Report{
					Claim: claim, ReporterPos: geo.Point{X: 480 + rng.Float64()*40, Y: 500},
					PathID: uint64(100 + i),
				})
			}
			for i := 0; i < 8; i++ { // one sybil attacker, 8 identities, one path
				g.Reports = append(g.Reports, trust.Report{
					Claim: !eventReal, ReporterPos: geo.Point{X: 900, Y: 500}, PathID: 7,
				})
			}
			score := v.Score(g)
			decided, unknown := trust.Decide(score, 0.05)
			if !unknown && decided == eventReal {
				correct++
			}
		}
		return float64(correct) / float64(events)
	}

	// Eight independent runs, indexed in drill order.
	jobs := []func() float64{
		func() float64 { return track(200 * time.Millisecond) }, // aggressive beaconing
		func() float64 { return track(2 * time.Second) },        // sparse beaconing (defense)
		func() float64 { return dos(false) },
		func() float64 { return dos(true) },
		func() float64 { return supp(false) },
		func() float64 { return supp(true) },
		func() float64 { return sybil(false) },
		func() float64 { return sybil(true) },
	}
	res := make([]float64, len(jobs))
	if err := forEachPar(cfg, len(jobs), func(i int) error {
		res[i] = jobs[i]()
		return nil
	}); err != nil {
		return nil, err
	}
	trackFast, trackSlow := res[0], res[1]
	dosClean, dosFlood := res[2], res[3]
	suppHonest, suppBad := res[4], res[5]
	sybVote, sybDiverse := res[6], res[7]

	table.AddRow("eavesdrop/track", "link accuracy",
		metrics.Pct(trackFast), metrics.Pct(trackSlow))
	values["tracking/fast"] = trackFast
	values["tracking/slow"] = trackSlow
	table.AddRow("DoS flood", "delivery share", metrics.Pct(dosFlood), metrics.Pct(dosClean))
	values["dos/clean"] = dosClean
	values["dos/flooded"] = dosFlood
	table.AddRow("suppression", "relay delivery", metrics.Pct(suppBad), metrics.Pct(suppHonest))
	values["suppression/honest"] = suppHonest
	values["suppression/compromised"] = suppBad
	table.AddRow("sybil", "decision accuracy", metrics.Pct(sybVote), metrics.Pct(sybDiverse))
	values["sybil/voting"] = sybVote
	values["sybil/diverse"] = sybDiverse

	return &Result{ID: "E10", Title: "attacks", Table: table, Values: values}, nil
}
