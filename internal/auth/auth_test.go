package auth

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/cryptoprim"
	"vcloud/internal/geo"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// rig wires two (or more) static nodes with enrollments.
type rig struct {
	k     *sim.Kernel
	m     *radio.Medium
	ta    *pki.TA
	nodes []*vnet.Node
	enrs  []*pki.Enrollment
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	bounds := geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 2000, Y: 100})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ta, err := pki.New("TA", rand.New(rand.NewSource(99)), pki.Config{PoolSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{k: k, m: m, ta: ta}
	for i := 0; i < n; i++ {
		pos := geo.Point{X: float64(i) * 100, Y: 0}
		addr := vnet.Addr(i)
		m.UpdatePosition(addr, pos)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{}, func() (geo.Point, float64, float64) {
			return pos, 0, 0
		})
		if err != nil {
			t.Fatal(err)
		}
		enr, err := ta.Enroll(pki.VehicleIdentity(fmt.Sprintf("veh-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
		r.enrs = append(r.enrs, enr)
	}
	return r
}

func (r *rig) anchors(mode CRLMode) Anchors {
	return Anchors{
		RootKey:  r.ta.RootKey(),
		GroupKey: r.ta.GroupKey(),
		CRL:      r.ta.CRL(),
		CRLMode:  mode,
		GroupRevoked: func(sig cryptoprim.GroupSig) (bool, int) {
			return !r.ta.GroupManager().CheckNotRevoked(sig), r.ta.CRL().Len() / 10
		},
	}
}

func (r *rig) authPair(t testing.TB, scheme Scheme, met *Metrics) (*Authenticator, *Authenticator) {
	t.Helper()
	a, err := New(r.nodes[0], r.enrs[0], r.anchors(CRLLinear), scheme, CostModel{}, met)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(r.nodes[1], r.enrs[1], r.anchors(CRLLinear), scheme, CostModel{}, met)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSchemeString(t *testing.T) {
	if Pseudonym.String() != "pseudonym" || Group.String() != "group" || Hybrid.String() != "hybrid" {
		t.Error("scheme strings wrong")
	}
	if Scheme(0).String() != "unknown" {
		t.Error("zero scheme should be unknown")
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t, 1)
	met := &Metrics{}
	anchors := r.anchors(CRLLinear)
	if _, err := New(nil, r.enrs[0], anchors, Pseudonym, CostModel{}, met); err == nil {
		t.Error("nil node should error")
	}
	if _, err := New(r.nodes[0], nil, anchors, Pseudonym, CostModel{}, met); err == nil {
		t.Error("nil enrollment should error")
	}
	if _, err := New(r.nodes[0], r.enrs[0], anchors, Pseudonym, CostModel{}, nil); err == nil {
		t.Error("nil metrics should error")
	}
	if _, err := New(r.nodes[0], r.enrs[0], anchors, Scheme(99), CostModel{}, met); err == nil {
		t.Error("bad scheme should error")
	}
	if _, err := New(r.nodes[0], r.enrs[0], Anchors{}, Pseudonym, CostModel{}, met); err == nil {
		t.Error("missing root key should error")
	}
}

func TestMutualAuthAllSchemes(t *testing.T) {
	for _, scheme := range []Scheme{Pseudonym, Group, Hybrid} {
		t.Run(scheme.String(), func(t *testing.T) {
			r := newRig(t, 2)
			met := &Metrics{}
			a, _ := r.authPair(t, scheme, met)
			var res Result
			if err := a.Authenticate(1, func(r Result) { res = r }); err != nil {
				t.Fatal(err)
			}
			if err := r.k.Run(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("handshake failed: %+v", res)
			}
			if res.Peer != 1 {
				t.Errorf("peer = %d", res.Peer)
			}
			// Latency must include at least 2 signs + 2 verifies of
			// virtual crypto time (1ms + 2ms each side).
			if res.Latency < 6*time.Millisecond {
				t.Errorf("latency %v too small for modeled crypto costs", res.Latency)
			}
			if met.Successes.Value() != 1 || met.Attempts.Value() != 1 {
				t.Errorf("metrics: %+v", met)
			}
			if met.Latency.Count() != 1 {
				t.Error("latency histogram empty")
			}
		})
	}
}

func TestAuthenticateValidation(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	a, _ := r.authPair(t, Group, met)
	if err := a.Authenticate(a.node.Addr(), nil); err == nil {
		t.Error("self-auth should error")
	}
	a.Stop()
	a.Stop() // double stop safe
	if err := a.Authenticate(1, nil); err == nil {
		t.Error("authenticate after stop should error")
	}
}

func TestTimeoutWhenPeerSilent(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	// Only the initiator runs auth; the peer has no authenticator.
	a, err := New(r.nodes[0], r.enrs[0], r.anchors(CRLLinear), Pseudonym, CostModel{}, met)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	gotCalls := 0
	if err := a.Authenticate(1, func(r Result) { res = r; gotCalls++ }); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Reason != "timeout" {
		t.Errorf("result = %+v, want timeout", res)
	}
	if gotCalls != 1 {
		t.Errorf("done called %d times", gotCalls)
	}
	if met.Timeouts.Value() != 1 {
		t.Errorf("timeouts = %d", met.Timeouts.Value())
	}
}

func TestForgedPseudonymRejected(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	_, b := r.authPair(t, Pseudonym, met)
	_ = b
	// The attacker self-signs a certificate with its own "CA".
	evilRand := rand.New(rand.NewSource(666))
	evilCA, _ := cryptoprim.NewCA("evil", evilRand)
	evilKey, _ := cryptoprim.GenerateKey(evilRand)
	cert, _ := evilCA.Issue([]byte("innocent"), evilKey.Public, time.Hour)
	ch := challenge(7, 0, 1, 1)
	forged := authReq{Nonce: 7, Proof: proof{Scheme: Pseudonym, Cert: cert, Sig: evilKey.Sign(ch)}}
	msg := r.nodes[0].NewMessage(1, reqKind, 300, 1, forged)
	r.nodes[0].SendTo(1, msg)
	if err := r.k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if met.Failures.Value() != 1 {
		t.Errorf("failures = %d, want 1 (forged cert rejected)", met.Failures.Value())
	}
	if met.Successes.Value() != 0 {
		t.Error("forged handshake succeeded")
	}
}

func TestForgedGroupSigRejected(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	_, _ = r.authPair(t, Group, met)
	// Attacker enrolled in a different group.
	evilRand := rand.New(rand.NewSource(13))
	gm2, _ := cryptoprim.NewGroupManager("foreign", evilRand)
	cred, _ := gm2.Enroll("mallory", evilRand)
	ch := challenge(3, 0, 1, 1)
	forged := authReq{Nonce: 3, Proof: proof{Scheme: Group, GroupSig: cred.Sign(ch, 3)}}
	msg := r.nodes[0].NewMessage(1, reqKind, 150, 1, forged)
	r.nodes[0].SendTo(1, msg)
	if err := r.k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if met.Failures.Value() != 1 || met.Successes.Value() != 0 {
		t.Errorf("forged group sig: failures=%d successes=%d", met.Failures.Value(), met.Successes.Value())
	}
}

func TestRevokedPseudonymRejected(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	a, _ := r.authPair(t, Pseudonym, met)
	// Revoke the initiator: its pseudonym serials enter the shared CRL.
	if err := r.ta.RevokeVehicle("veh-0"); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := a.Authenticate(1, func(rr Result) { res = rr }); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("revoked vehicle authenticated")
	}
	if met.Failures.Value() == 0 {
		t.Error("revocation rejection not recorded")
	}
}

// The rig's pseudonym pools hold ten certificates, so after ten handshakes
// each side has verified — and remembers — every certificate the other
// owns, and the eleventh is answered from the memo. Revocation and expiry
// are not the memo's business: a handshake after either must still fail,
// and the modelled verification count must not notice the memo at all.
func TestRememberedCertStillRevokedOrExpired(t *testing.T) {
	for _, tc := range []struct {
		name    string
		at      sim.Time // when the twelfth handshake starts
		revoke  pki.VehicleIdentity
		reason  string
		timeout uint64
	}{
		// The initiator verifies the responder's proof and reports why it failed.
		{name: "responder revoked", at: 20 * time.Second, revoke: "veh-1", reason: "revoked pseudonym"},
		// The responder drops a revoked or expired initiator silently.
		{name: "initiator revoked", at: 20 * time.Second, revoke: "veh-0", reason: "timeout", timeout: 1},
		{name: "expired", at: 25 * time.Hour, reason: "timeout", timeout: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 2)
			met := &Metrics{}
			a, _ := r.authPair(t, Pseudonym, met)
			var last Result
			shake := func() {
				if err := a.Authenticate(1, func(rr Result) { last = rr }); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 11; i++ {
				r.k.At(sim.Time(i)*time.Second, shake)
			}
			if err := r.k.Run(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			if met.Successes.Value() != 11 || !last.OK {
				t.Fatalf("warm-up: %d of 11 handshakes succeeded", met.Successes.Value())
			}
			if got := met.VerifyOps.Value(); got != 11*4 {
				t.Errorf("VerifyOps = %d, want 44: every modelled verification is still counted", got)
			}
			if tc.revoke != "" {
				if err := r.ta.RevokeVehicle(tc.revoke); err != nil {
					t.Fatal(err)
				}
			}
			r.k.At(tc.at, shake)
			if err := r.k.Run(tc.at + 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if last.OK || last.Reason != tc.reason {
				t.Errorf("handshake after the change: OK=%v reason=%q, want rejection with %q", last.OK, last.Reason, tc.reason)
			}
			if met.Successes.Value() != 11 || met.Failures.Value() != 1 || met.Timeouts.Value() != tc.timeout {
				t.Errorf("successes=%d failures=%d timeouts=%d, want 11, 1, %d", met.Successes.Value(), met.Failures.Value(), met.Timeouts.Value(), tc.timeout)
			}
		})
	}
}

func TestRevokedGroupMemberRejected(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	a, _ := r.authPair(t, Group, met)
	if err := r.ta.RevokeVehicle("veh-0"); err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := a.Authenticate(1, func(rr Result) { res = rr }); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("revoked group member authenticated")
	}
}

func TestPseudonymRotationUnlinkable(t *testing.T) {
	// The responder must see a different pseudonym subject on each
	// handshake — that is the whole point of the pool.
	r := newRig(t, 2)
	met := &Metrics{}
	a, _ := r.authPair(t, Pseudonym, met)
	subjects := map[string]bool{}
	seen := 0
	r.nodes[1].Handle("observe", nil) // no-op; observation happens below
	// Wrap node 1's request handler by observing through a second handler
	// channel: instead, observe initiator-side by running 5 handshakes
	// and tracking the pool.
	for i := 0; i < 5; i++ {
		before := a.enroll.Pseudonyms.Current().Cert
		subjects[string(before.Subject)] = true
		done := make(chan struct{}, 1)
		_ = done
		if err := a.Authenticate(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.k.Run(r.k.Now() + 5*time.Second); err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if len(subjects) != 5 {
		t.Errorf("pseudonym subjects used = %d, want 5 distinct", len(subjects))
	}
	if met.Successes.Value() != 5 {
		t.Errorf("successes = %d", met.Successes.Value())
	}
}

func TestCRLCostLinearVsBloom(t *testing.T) {
	// Grow the CRL and compare pseudonym handshake latency between
	// linear and bloom verifiers: the E5 ablation in miniature.
	latency := func(mode CRLMode, revoked int) sim.Time {
		r := newRig(t, 2)
		for i := 2; i < 2+revoked; i++ {
			id := pki.VehicleIdentity(fmt.Sprintf("rev-%d", i))
			if _, err := r.ta.Enroll(id); err != nil {
				t.Fatal(err)
			}
			if err := r.ta.RevokeVehicle(id); err != nil {
				t.Fatal(err)
			}
		}
		met := &Metrics{}
		a, err := New(r.nodes[0], r.enrs[0], r.anchors(mode), Pseudonym, CostModel{}, met)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(r.nodes[1], r.enrs[1], r.anchors(mode), Pseudonym, CostModel{}, met); err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := a.Authenticate(1, func(rr Result) { res = rr }); err != nil {
			t.Fatal(err)
		}
		if err := r.k.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("handshake failed under mode %d", mode)
		}
		return res.Latency
	}
	linSmall := latency(CRLLinear, 10)
	linBig := latency(CRLLinear, 500)
	bloomBig := latency(CRLBloom, 500)
	if linBig <= linSmall {
		t.Errorf("linear CRL cost should grow: %v (10 revoked) vs %v (500)", linSmall, linBig)
	}
	if bloomBig >= linBig {
		t.Errorf("bloom (%v) should beat linear (%v) at 500 revoked", bloomBig, linBig)
	}
}

func TestRevokedHybridRejectedViaTrapdoor(t *testing.T) {
	r := newRig(t, 2)
	met := &Metrics{}
	anchors := r.anchors(CRLLinear)
	anchors.HybridRevoked = func(id [32]byte) bool {
		tags := r.ta.HybridRevocationTags(64)
		_, ok := tags[id]
		return ok
	}
	a, err := New(r.nodes[0], r.enrs[0], anchors, Hybrid, CostModel{}, met)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(r.nodes[1], r.enrs[1], anchors, Hybrid, CostModel{}, met); err != nil {
		t.Fatal(err)
	}
	// Works before revocation.
	var res Result
	if err := a.Authenticate(1, func(rr Result) { res = rr }); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("pre-revocation hybrid handshake failed: %+v", res)
	}
	// Revoke the initiator: its chain IDs are now trapdoor tags.
	if err := r.ta.RevokeVehicle("veh-0"); err != nil {
		t.Fatal(err)
	}
	res = Result{}
	if err := a.Authenticate(1, func(rr Result) { res = rr }); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Error("revoked vehicle authenticated via hybrid scheme")
	}
}
