package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vcloud/internal/access"
	"vcloud/internal/auth"
	"vcloud/internal/cryptoprim"
	"vcloud/internal/geo"
	"vcloud/internal/metrics"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// E5Authentication reproduces Fig. 5: pseudonym vs group vs hybrid
// authentication across revoked-population sizes, with the CRL-structure
// ablation (linear vs bloom). Reported: handshake latency, bytes per
// handshake, CRL entries scanned, and the privacy characteristics
// (outsider anonymity set; who can trace).
func E5Authentication(cfg Config) (*Result, error) {
	revokedLevels := []int{0, 200}
	if !cfg.Quick {
		revokedLevels = []int{0, 100, 500, 2000}
	}
	handshakes := pick(cfg, 20, 60)

	table := metrics.NewTable(
		"E5 — Authentication protocols (Fig. 5)",
		"scheme", "revoked", "p50 latency", "bytes/hs", "CRL scans/hs", "anonymity", "traced by",
	)
	values := map[string]float64{}

	type arm struct {
		scheme  auth.Scheme
		crlMode auth.CRLMode
		label   string
	}
	arms := []arm{
		{auth.Pseudonym, auth.CRLLinear, "pseudonym(linear)"},
		{auth.Pseudonym, auth.CRLBloom, "pseudonym(bloom)"},
		{auth.Group, auth.CRLLinear, "group"},
		{auth.Hybrid, auth.CRLLinear, "hybrid"},
	}

	type sweep struct {
		a       arm
		revoked int
	}
	var sweeps []sweep
	for _, a := range arms {
		for _, revoked := range revokedLevels {
			sweeps = append(sweeps, sweep{a, revoked})
		}
	}
	err := assemble(cfg, table, values, len(sweeps), func(idx int, p *point) error {
		a, revoked := sweeps[idx].a, sweeps[idx].revoked
		k := sim.NewKernel(cfg.Seed)
		bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
		medium, err := radio.NewMedium(k, bounds, radio.DefaultParams())
		if err != nil {
			return err
		}
		poolSize := 20
		ta, err := pki.New("TA", rand.New(rand.NewSource(cfg.Seed)), pki.Config{PoolSize: poolSize})
		if err != nil {
			return err
		}
		// Populate the revoked set.
		for i := 0; i < revoked; i++ {
			id := pki.VehicleIdentity(fmt.Sprintf("rev-%d", i))
			if _, err := ta.Enroll(id); err != nil {
				return err
			}
			if err := ta.RevokeVehicle(id); err != nil {
				return err
			}
		}
		anchors := auth.Anchors{
			RootKey:  ta.RootKey(),
			GroupKey: ta.GroupKey(),
			CRL:      ta.CRL(),
			CRLMode:  a.crlMode,
			GroupRevoked: func(sig cryptoprim.GroupSig) (bool, int) {
				// Verifier-local revocation tokens: one per revoked
				// member.
				return !ta.GroupManager().CheckNotRevoked(sig), revoked
			},
		}
		met := &auth.Metrics{}
		var auths []*auth.Authenticator
		for i := 0; i < 2; i++ {
			pos := geo.Point{X: 100 + float64(i)*100, Y: 100}
			addr := vnet.Addr(i)
			medium.UpdatePosition(addr, pos)
			node, err := vnet.NewNode(k, medium, addr, vnet.Config{}, func() (geo.Point, float64, float64) {
				return pos, 0, 0
			})
			if err != nil {
				return err
			}
			enr, err := ta.Enroll(pki.VehicleIdentity(fmt.Sprintf("veh-%d", i)))
			if err != nil {
				return err
			}
			au, err := auth.New(node, enr, anchors, a.scheme, auth.CostModel{}, met)
			if err != nil {
				return err
			}
			auths = append(auths, au)
		}
		for i := 0; i < handshakes; i++ {
			i := i
			k.At(sim.Time(i)*100*time.Millisecond, func() {
				_ = auths[0].Authenticate(1, nil)
			})
		}
		if err := k.Run(sim.Time(handshakes)*100*time.Millisecond + 10*time.Second); err != nil {
			return err
		}

		succ := met.Successes.Value()
		if succ == 0 {
			return fmt.Errorf("E5: no successful handshakes for %s/%d", a.label, revoked)
		}
		bytesPer := float64(met.BytesSent.Value()) / float64(succ)
		scansPer := float64(met.CRLScanned.Value()) / float64(succ)
		anonymity, tracer := privacyRow(a.scheme, poolSize, ta)
		p.addRow(a.label, fmt.Sprintf("%d", revoked),
			metrics.Ms(met.Latency.Percentile(50)),
			fmt.Sprintf("%.0f", bytesPer),
			fmt.Sprintf("%.0f", scansPer),
			anonymity, tracer)
		key := fmt.Sprintf("%s/%d", a.label, revoked)
		p.set(key+"/p50ms", met.Latency.Percentile(50))
		p.set(key+"/bytes", bytesPer)
		p.set(key+"/scans", scansPer)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E5", Table: table, Values: values}, nil
}

// privacyRow returns the analytic privacy characteristics of a scheme:
// the outsider anonymity-set size and who can deanonymize.
func privacyRow(s auth.Scheme, poolSize int, ta *pki.TA) (anonymity, tracer string) {
	switch s {
	case auth.Pseudonym:
		return fmt.Sprintf("pool=%d", poolSize), "TA (serial escrow)"
	case auth.Group:
		return fmt.Sprintf("group=%d", ta.GroupManager().NumMembers()), "group manager"
	default:
		return fmt.Sprintf("group=%d", ta.GroupManager().NumMembers()), "TA (trapdoor)"
	}
}

// latencyBand buckets a measured per-decision latency into its
// order-of-magnitude band relative to §III.C's milliseconds budget.
func latencyBand(ns float64) string {
	switch {
	case ns < 1e3:
		return "sub-µs"
	case ns < 1e6:
		return "sub-ms"
	default:
		return "ms+"
	}
}

// fastestNsPer calls fn(0..iters-1) in ten equal timed chunks and returns
// the fastest chunk's nanoseconds per call. A worker descheduled mid-loop
// (-parallel above the core count) inflates a whole-loop mean past a band
// edge; the minimum over chunks ignores it.
func fastestNsPer(iters int, fn func(i int)) float64 {
	const chunks = 10
	per := iters / chunks
	best := math.Inf(1)
	for c := 0; c < chunks; c++ {
		start := time.Now() //vcloudlint:allow nowallclock E6 measures real decision cost: raw ns go to Values, the table prints stable bands
		for i := c * per; i < (c+1)*per; i++ {
			fn(i)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(per) //vcloudlint:allow nowallclock E6 measures real decision cost: raw ns go to Values, the table prints stable bands
		best = math.Min(best, ns)
	}
	return best
}

// E6AccessControl measures policy-decision latency against policy-set
// size and the emergency-escalation path (§III.C's "milliseconds"
// requirement). Decisions are real computations measured in wall-clock
// nanoseconds; the raw samples land in Values while the table prints
// the deterministic budget band per point.
func E6AccessControl(cfg Config) (*Result, error) {
	policyCounts := []int{10, 100}
	if !cfg.Quick {
		policyCounts = []int{10, 100, 1000, 5000}
	}
	iters := pick(cfg, 2000, 20000)

	table := metrics.NewTable(
		"E6 — Access-control decision latency",
		"policies", "decision", "allowed", "emergency",
	)
	values := map[string]float64{}

	err := assemble(cfg, table, values, len(policyCounts), func(idx int, p *point) error {
		n := policyCounts[idx]
		// Per-point stream so the role draw is independent of sweep order
		// (and of which worker runs the point).
		rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)))
		policies := make([]access.Policy, n)
		area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
		for i := range policies {
			policies[i] = access.Policy{
				Resource: fmt.Sprintf("res-%d", i),
				Rules: []access.Rule{
					{
						Action: access.Read,
						AnyOf: []access.Clause{
							{access.AttributeID(fmt.Sprintf("auth/role-%d", i%7)), "auth/automation3"},
							{"auth/police"},
						},
						Context: access.ContextRule{Area: &area, MaxSpeed: 40},
					},
					{
						Action:  access.Read,
						AnyOf:   []access.Clause{{"auth/responder"}},
						Context: access.ContextRule{EmergencyOnly: true},
					},
				},
			}
		}
		attrs := access.AttrSet{
			access.AttributeID(fmt.Sprintf("auth/role-%d", rng.Intn(7))): 0,
			"auth/automation3": 0,
		}
		emergencyAttrs := access.AttrSet{"auth/responder": 0}
		ctx := access.Context{Pos: geo.Point{X: 500, Y: 500}, Speed: 20}
		emCtx := access.Context{Pos: geo.Point{X: 5000, Y: 0}, Speed: 60, Emergency: true}

		// Normal decisions.
		allowed := 0
		perDecision := fastestNsPer(iters, func(i int) {
			if d := access.Evaluate(&policies[i%n], attrs, access.Read, ctx); d.Allowed {
				allowed++
			}
		})

		// Emergency escalations.
		emAllowed := 0
		emPer := fastestNsPer(iters, func(i int) {
			if d := access.Evaluate(&policies[i%n], emergencyAttrs, access.Read, emCtx); d.Allowed {
				emAllowed++
			}
		})
		if emAllowed == 0 {
			return fmt.Errorf("E6: emergency escalation never granted")
		}

		// The table prints the order-of-magnitude band against §III.C's
		// milliseconds budget, not the raw sample: bands are stable
		// run-to-run, so vcloudbench stdout is byte-identical at any
		// parallelism. Raw measured ns stay in Values.
		p.addRow(fmt.Sprintf("%d", n),
			latencyBand(perDecision),
			metrics.Pct(float64(allowed)/float64(iters)),
			latencyBand(emPer))
		p.set(fmt.Sprintf("%d/ns", n), perDecision)
		p.set(fmt.Sprintf("%d/emergency-ns", n), emPer)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E6", Table: table, Values: values}, nil
}
