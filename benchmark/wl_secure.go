package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"vcloud"
)

// secure_join: a parked fleet plus four gate RSUs, one per authentication
// arm of Fig. 5 (pseudonym with a linear CRL scan, pseudonym with a bloom
// pre-check, group, hybrid), and a trusted authority whose CRL holds
// thousands of revoked pseudonyms. Waves of vehicles authenticate to the
// gate of their arm, a few revoked vehicles among them; every admitted
// vehicle then opens a policy-sealed package and asks for one policy
// decision.
//
// Open loop: a wave of twenty vehicles every 250 ms, each at a seeded
// instant inside the wave. Op = one handshake or one access decision,
// 500 ms deadline. A revoked vehicle correctly rejected is a success; a
// revoked vehicle admitted fails the run. Beaconing is off, so the
// substrate carries only the handshake frames and the crypto layers do
// nearly all the work; set-up carries enrolment.
const (
	secureFleet     = 240 // honest vehicles, sixty per arm
	secureRevokedID = 150 // revoked identities; each puts its 20 pseudonyms on the CRL
	secureHorizon   = 140 * time.Second
	secureDrain     = 4 * time.Second
	secureWaveEvery = 250 * time.Millisecond
	secureWaveSize  = 20
	secureRevokedHS = 6 // attempts by the revoked vehicle of each arm
	secureDeadline  = 500 * time.Millisecond
	securePackages  = 16
	securePolicies  = 64
	secureChainTags = 32 // one-time ids per revoked vehicle the gates hold
)

var (
	secureRoles = []accessAttr{"city/role:resident", "city/role:visitor", "city/role:staff", "city/role:responder"}
	secureZones = []accessAttr{"city/zone:a", "city/zone:b", "city/zone:c"}
)

type secureVehicle struct {
	id      vcloud.VehicleID
	arm     int
	revoked bool
	auth    *authenticator
	ring    *accessKeyring
	attrs   map[accessAttr]bool
}

type secureJoin struct {
	e        *env
	s        *vcloud.Scenario
	ta       *vcloud.TrustedAuthority
	met      *vcloud.AuthMetrics
	gates    []addr
	vehicles []*secureVehicle
	packages []*accessPackage
	plain    [][]byte
	policies []accessPolicy
	ops      opLog
	horizon  time.Duration

	watch   *kernelWatch
	base    substrateBase
	metBase vcloud.AuthMetrics
}

func buildSecureJoin(e *env) (instance, error) {
	w := &secureJoin{e: e, met: &vcloud.AuthMetrics{}}
	honest := e.count(secureFleet, 16) / len(authArms) * len(authArms)
	n := honest + len(authArms) // plus one revoked vehicle per arm
	// No beacons: nothing here needs neighbor tables.
	s, err := buildWorld(e.tr, parkingLot(4), vcloud.ScenarioSpec{Seed: subSeed(e.seed, "fleet"), NumVehicles: n, Parked: true, BeaconPeriod: 24 * time.Hour})
	if err != nil {
		return nil, err
	}
	w.s = s
	// The gates stand mid-lot, within reliable range of every bay.
	c := s.Network.Bounds().Center()
	for i := range authArms {
		g, err := s.AddRSU(vcloud.Point{X: c.X + float64(i%2)*10, Y: c.Y + float64(i/2)*10})
		if err != nil {
			return nil, err
		}
		w.gates = append(w.gates, g.Addr())
	}

	if w.ta, err = vcloud.NewTrustedAuthority("TA", subSeed(e.seed, "ta")); err != nil {
		return nil, err
	}
	enrollSpan := func(id string) (*enrollment, error) {
		sid := e.tr.begin("pki.TA.Enroll", -1)
		enr, err := enroll(w.ta, id)
		e.tr.end(sid)
		return enr, err
	}
	// The revoked population: enrolled once, then revoked.
	revokedIDs := e.count(secureRevokedID, 10)
	for i := 0; i < revokedIDs; i++ {
		id := fmt.Sprintf("rev-%d", i)
		if _, err := enrollSpan(id); err != nil {
			return nil, err
		}
		if err := revoke(w.ta, id); err != nil {
			return nil, err
		}
	}
	// Fleet and gates enrol; the last vehicle of each arm is then revoked.
	ids := s.VehicleIDs()
	enrs := make([]*enrollment, len(ids))
	for i, id := range ids {
		if enrs[i], err = enrollSpan(fmt.Sprintf("veh-%d", id)); err != nil {
			return nil, err
		}
	}
	for i := honest; i < n; i++ {
		if err := revoke(w.ta, fmt.Sprintf("veh-%d", ids[i])); err != nil {
			return nil, err
		}
	}
	revokedTotal := revokedIDs + len(authArms)
	tags := w.ta.HybridRevocationTags(secureChainTags)
	for i, arm := range authArms {
		enr, err := enrollSpan(fmt.Sprintf("gate-%d", i))
		if err != nil {
			return nil, err
		}
		if _, err := newAuthenticator(s.RSUs[i], enr, w.ta, arm, revokedTotal, tags, w.met); err != nil {
			return nil, err
		}
	}

	// Attributes, packages and policies from the seed.
	arng := rand.New(rand.NewSource(subSeed(e.seed, "access")))
	au, err := newAccessAuthority("city", arng)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		node, _ := s.Node(id)
		v := &secureVehicle{id: id, arm: i % len(authArms), revoked: i >= honest, ring: newKeyring(), attrs: map[accessAttr]bool{}}
		if v.auth, err = newAuthenticator(node, enrs[i], w.ta, authArms[v.arm], revokedTotal, tags, w.met); err != nil {
			return nil, err
		}
		for _, a := range []accessAttr{secureRoles[arng.Intn(len(secureRoles))], secureZones[arng.Intn(len(secureZones))]} {
			v.ring.Add(au.Grant(a))
			v.attrs[a] = true
		}
		w.vehicles = append(w.vehicles, v)
	}
	for i := 0; i < securePackages; i++ {
		data := make([]byte, 2048)
		arng.Read(data) // math/rand's Read never fails
		resource := fmt.Sprintf("map-tile-%d", i)
		// Readable by staff, or by one role inside one zone.
		policy := accessPolicy{Resource: resource}
		policy.Rules = append(policy.Rules, readRule(
			[]accessAttr{"city/role:staff"},
			[]accessAttr{secureRoles[arng.Intn(len(secureRoles))], secureZones[arng.Intn(len(secureZones))]},
		))
		pkg, err := sealPackage(resource, data, policy, uint64(i+1), au, arng)
		if err != nil {
			return nil, err
		}
		w.packages, w.plain = append(w.packages, pkg), append(w.plain, data)
	}
	for i := 0; i < securePolicies; i++ {
		p := accessPolicy{Resource: fmt.Sprintf("service-%d", i)}
		for r := 1 + arng.Intn(3); r > 0; r-- {
			rule := readRule([]accessAttr{secureRoles[arng.Intn(len(secureRoles))]})
			if arng.Intn(2) == 0 {
				rule.AnyOf = append(rule.AnyOf, []accessAttr{secureRoles[arng.Intn(len(secureRoles))], secureZones[arng.Intn(len(secureZones))]})
			}
			switch arng.Intn(3) {
			case 0:
				rule.Context.EmergencyOnly = true
			case 1:
				rule.Context.MaxSpeed = 15
			}
			p.Rules = append(p.Rules, rule)
		}
		w.policies = append(w.policies, p)
	}

	if err := s.Start(); err != nil {
		return nil, err
	}
	w.watch = watchKernel(s)
	if err := advance(e.tr, s, "Kernel.Run.warmup", time.Second, nil); err != nil {
		return nil, err
	}

	// Arrival waves: honest vehicles in a seeded rotation; each arm's
	// revoked vehicle tries a fixed number of times at seeded instants, so
	// the share of (slow, timed-out) rejections among handshakes is the
	// same for every seed.
	w.horizon = e.span(secureHorizon, 5*time.Second)
	t0 := s.Kernel.Now()
	wrng := stream(e.seed, "secure.waves")
	order := wrng.Perm(honest)
	next := 0
	for t := time.Duration(0); t < w.horizon; t += secureWaveEvery {
		for k := 0; k < min(secureWaveSize, honest); k++ {
			v := w.vehicles[order[next%honest]]
			next++
			w.plan(v, t0+t+time.Duration(wrng.Int63n(int64(secureWaveEvery*4/5))), wrng)
		}
	}
	for _, v := range w.vehicles[honest:] {
		for k := 0; k < secureRevokedHS; k++ {
			w.plan(v, t0+time.Duration(wrng.Int63n(int64(w.horizon))), wrng)
		}
	}
	return w, nil
}

// plan schedules one handshake by v at due and, for an honest vehicle,
// the two access decisions it makes once admitted.
func (w *secureJoin) plan(v *secureVehicle, due time.Duration, rng *rand.Rand) {
	hs := w.ops.add("handshake", due, secureDeadline)
	if v.revoked {
		w.s.Kernel.At(due, func() { w.handshake(v, hs, -1, -1, accessContext{}) })
		return
	}
	open := w.ops.add("open", due, secureDeadline)
	decide := w.ops.add("decide", due, secureDeadline)
	w.ops.ops[open].noLat, w.ops.ops[decide].noLat = true, true
	ctx := accessContext{Speed: 30 * rng.Float64(), Emergency: rng.Intn(4) == 0, Now: int64(due)}
	w.ops.ops[open].value = uint64(rng.Intn(len(w.packages)))
	w.ops.ops[decide].value = uint64(rng.Intn(len(w.policies)))
	w.s.Kernel.At(due, func() { w.handshake(v, hs, open, decide, ctx) })
}

func (w *secureJoin) handshake(v *secureVehicle, hs, open, decide int, ctx accessContext) {
	id := w.e.tr.begin("auth.Authenticate", int64(hs))
	err := v.auth.Authenticate(w.gates[v.arm], func(r authResult) {
		cid := w.e.tr.begin("callback.auth_result", int64(hs))
		defer w.e.tr.end(cid)
		now := w.s.Kernel.Now()
		if v.revoked {
			if r.OK {
				w.ops.breach("revoked vehicle %d admitted through the %s gate", v.id, authArms[v.arm].name)
			}
			w.ops.finish(hs, now, !r.OK, 0)
			return
		}
		w.ops.finish(hs, now, r.OK, 1)
		if r.OK {
			w.open(v, open, now, ctx)
			w.decide(v, decide, now, ctx)
		}
	})
	w.e.tr.end(id)
	if err != nil {
		w.ops.finish(hs, w.s.Kernel.Now(), false, 0)
	}
}

// open has the admitted vehicle open a sealed package. The decision must
// match the benchmark's own reading of the policy, and an allowed open
// must return the bytes that were sealed.
func (w *secureJoin) open(v *secureVehicle, op int, now time.Duration, ctx accessContext) {
	i := int(w.ops.ops[op].value)
	pkg := w.packages[i]
	var token [32]byte
	token[0], token[1], token[2] = byte(op), byte(op>>8), byte(op>>16)
	id := w.e.tr.begin("access.Open", int64(op))
	data, d, _ := pkg.Open(v.ring, ctx, token) // a denial is an error by design; the decision carries it
	w.e.tr.end(id)
	want := referenceRead(&pkg.Policy, func(a accessAttr) bool { return v.attrs[a] }, ctx)
	good := d.Allowed == want && (!want || bytes.Equal(data, w.plain[i]))
	w.ops.finish(op, now, good, uint64(i)<<1|b2u(d.Allowed))
}

func (w *secureJoin) decide(v *secureVehicle, op int, now time.Duration, ctx accessContext) {
	i := int(w.ops.ops[op].value)
	p := &w.policies[i]
	id := w.e.tr.begin("access.Evaluate", int64(op))
	got := evaluateRead(p, v.ring, ctx)
	w.e.tr.end(id)
	want := referenceRead(p, func(a accessAttr) bool { return v.attrs[a] }, ctx)
	w.ops.finish(op, now, got == want, uint64(i)<<1|b2u(got))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (w *secureJoin) run() error {
	w.base = snapSubstrate(w.s)
	w.metBase = *w.met
	w.watch.reset()
	return advance(w.e.tr, w.s, "Kernel.Run", w.horizon+secureDrain, nil)
}

func (w *secureJoin) finish() (*outcome, error) {
	c := map[string]float64{}
	substrateCounters(c, w.s, w.base, w.watch)
	m, b := w.met, &w.metBase
	ok := float64(m.Successes.Value() - b.Successes.Value())
	c["auth.handshakes_ok"] = ok
	c["auth.handshakes_failed"] = float64(m.Failures.Value()-b.Failures.Value()) + float64(m.Timeouts.Value()-b.Timeouts.Value())
	c["auth.verify_ops"] = float64(m.VerifyOps.Value() - b.VerifyOps.Value())
	if ok > 0 {
		c["auth.crl_scans_per_hs"] = float64(m.CRLScanned.Value()-b.CRLScanned.Value()) / ok
		c["auth.bytes_per_hs"] = float64(m.BytesSent.Value()-b.BytesSent.Value()) / ok
	}
	// Handshake latency of admitted vehicles only: a rejection is a
	// two-second timeout by protocol.
	var lat []float64
	for i := range w.ops.ops {
		if o := &w.ops.ops[i]; o.kind == "handshake" && o.state == opOK && o.value == 1 {
			lat = append(lat, float64(o.done-o.due)/float64(time.Millisecond))
		}
	}
	if len(lat) > 0 {
		c["auth.vt_p50_ms"] = median(lat)
	}
	c["pki.crl_entries"] = float64(w.ta.CRL().Len())
	return opsOutcome(&w.ops, c, derivedSubstrate(0, 0)), nil // nobody moves
}

func (w *secureJoin) probes(layer map[string]float64) []string {
	probeSubstrate(layer, w.s, w.watch.pendingMax, false)
	probeCrypto(layer, rand.New(rand.NewSource(subSeed(w.e.seed, "probe.crypto"))))
	return nil
}
