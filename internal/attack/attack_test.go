package attack_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/attack"
	"vcloud/internal/auth"
	"vcloud/internal/cryptoprim"
	"vcloud/internal/geo"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

const attackerBase = radio.NodeID(1 << 24)

func highway(t testing.TB, seed int64, vehicles int) *scenario.Scenario {
	t.Helper()
	net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 2000, Segments: 2, SpeedLimit: 25, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.New(scenario.Spec{Seed: seed, Network: net, NumVehicles: vehicles})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEavesdropperCapturesBeacons(t *testing.T) {
	s := highway(t, 1, 15)
	spy, err := attack.NewEavesdropper(s.Medium, attackerBase, geo.Point{X: 1000, Y: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Nothing but beacons is on air here, so a frame counted as "other"
	// is a beacon whose payload type the eavesdropper no longer matches.
	if spy.Captured["beacon"] == 0 || spy.Captured["other"] != 0 {
		t.Fatalf("eavesdropper captured %v, want beacons only", spy.Captured)
	}
	// Tracking: plaintext positional beacons make vehicles highly
	// trackable — the §III privacy-breach threat.
	acc, links := spy.TrackingAccuracy(30, 2*time.Second)
	if links == 0 {
		t.Fatal("no tracking links formed")
	}
	if acc < 0.5 {
		t.Errorf("tracking accuracy %v suspiciously low for plaintext beacons", acc)
	}
	spy.Stop()
	// Flush frames that were already in flight at the stop instant.
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := spy.TotalCaptured()
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if spy.TotalCaptured() != before {
		t.Error("stopped eavesdropper kept capturing")
	}
}

func TestEavesdropperOverhearsUnicast(t *testing.T) {
	k := sim.NewKernel(1)
	bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mkNode := func(addr vnet.Addr, pos geo.Point) *vnet.Node {
		m.UpdatePosition(addr, pos)
		n, err := vnet.NewNode(k, m, addr, vnet.Config{}, func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mkNode(1, geo.Point{X: 100, Y: 100})
	b := mkNode(2, geo.Point{X: 200, Y: 100})
	_ = b
	spy, err := attack.NewEavesdropper(m, attackerBase, geo.Point{X: 150, Y: 120})
	if err != nil {
		t.Fatal(err)
	}
	a.SendTo(2, a.NewMessage(2, "secret-kind", 100, 1, "confidential"))
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if spy.Captured["secret-kind"] != 1 {
		t.Errorf("unicast not overheard: %v", spy.Captured)
	}
}

// authRig builds two authenticated nodes plus shared TA for replay /
// impersonation tests.
type authRig struct {
	k     *sim.Kernel
	m     *radio.Medium
	ta    *pki.TA
	nodes []*vnet.Node
	met   *auth.Metrics
	auths []*auth.Authenticator
}

func newAuthRig(t testing.TB, scheme auth.Scheme) *authRig {
	t.Helper()
	k := sim.NewKernel(2)
	bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ta, err := pki.New("TA", rand.New(rand.NewSource(7)), pki.Config{PoolSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &authRig{k: k, m: m, ta: ta, met: &auth.Metrics{}}
	anchors := auth.Anchors{
		RootKey:  ta.RootKey(),
		GroupKey: ta.GroupKey(),
		CRL:      ta.CRL(),
		CRLMode:  auth.CRLLinear,
		GroupRevoked: func(sig cryptoprim.GroupSig) (bool, int) {
			return !ta.GroupManager().CheckNotRevoked(sig), 0
		},
	}
	for i := 0; i < 2; i++ {
		pos := geo.Point{X: 100 + float64(i)*100, Y: 100}
		addr := vnet.Addr(i)
		m.UpdatePosition(addr, pos)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{}, func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			t.Fatal(err)
		}
		enr, err := ta.Enroll(pki.VehicleIdentity(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		au, err := auth.New(node, enr, anchors, scheme, auth.CostModel{}, r.met)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, node)
		r.auths = append(r.auths, au)
	}
	return r
}

// capture plants a promiscuous listener at pos that keeps the last
// message of each kind it overhears — the replay attacker's ears.
func capture(m *radio.Medium, addr radio.NodeID, pos geo.Point) map[string]vnet.Message {
	got := map[string]vnet.Message{}
	m.UpdatePosition(addr, pos)
	m.SetPromiscuous(addr, func(f radio.Frame) {
		if msg, ok := f.Payload.(vnet.Message); ok {
			got[msg.Kind] = msg
		}
	})
	return got
}

func TestReplayedAuthRequestRejected(t *testing.T) {
	r := newAuthRig(t, auth.Pseudonym)
	captured := capture(r.m, attackerBase, geo.Point{X: 150, Y: 120})
	// Legitimate handshake first, so the attacker captures an auth.req.
	okCount := 0
	if err := r.auths[0].Authenticate(1, func(res auth.Result) {
		if res.OK {
			okCount++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if okCount != 1 {
		t.Fatal("legitimate handshake failed; cannot test replay")
	}
	req, ok := captured["auth.req"]
	if !ok {
		t.Fatal("attacker captured no auth.req")
	}
	successesBefore := r.met.Successes.Value()
	// Replay the captured request at node 1. The challenge binds the
	// initiator address and nonce, and the response goes to the original
	// origin — the attacker gains nothing. The responder may even accept
	// the stale request (it is cryptographically valid), but no session
	// results for the attacker and no success is recorded for it.
	r.m.Send(attackerBase, 1, req.Size, req)
	if err := r.k.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.met.Successes.Value() != successesBefore {
		t.Errorf("replay produced a new successful handshake: %d -> %d",
			successesBefore, r.met.Successes.Value())
	}
}

func TestImpersonatedAuthFails(t *testing.T) {
	r := newAuthRig(t, auth.Pseudonym)
	r.m.UpdatePosition(attackerBase, geo.Point{X: 150, Y: 120})
	// The impersonator claims to be node 0 but has no TA credentials: it
	// fabricates a self-signed proof, which the responder must reject.
	evil := rand.New(rand.NewSource(66))
	key, _ := cryptoprim.GenerateKey(evil)
	ca, _ := cryptoprim.NewCA("evil", evil)
	cert, _ := ca.Issue([]byte("fake"), key.Public, time.Hour)
	// Payload shape mirrors auth's wire message via the public surface:
	// we can't build auth's unexported types, so send garbage of the
	// right kind — the responder's type assertion drops it silently,
	// which is itself the defense-in-depth path.
	r.m.Send(attackerBase, 1, 300, vnet.Message{Origin: 0, Seq: 0xFFFF0001, Dest: 1, Kind: "auth.req", TTL: 1, Size: 300, Payload: cert})
	if err := r.k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.met.Successes.Value() != 0 {
		t.Error("impersonation produced a successful handshake")
	}
}

func TestFlooderDegradesDelivery(t *testing.T) {
	baseline := func(withFlood bool) float64 {
		s := highway(t, 9, 15)
		var fl *attack.Flooder
		if withFlood {
			var err error
			// 2000 × 1500 B frames/s ≈ 24 Mbps against a 6 Mbps channel.
			fl, err = attack.NewFlooder(s.Kernel, s.Medium, attackerBase, geo.Point{X: 1000, Y: 15}, 2000, 1500)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if err := s.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if fl != nil {
			fl.Stop()
			if fl.Sent == 0 {
				t.Fatal("flooder sent nothing")
			}
		}
		st := s.Medium.Stats()
		return float64(st.Delivered) / float64(st.Delivered+st.LostLoad)
	}
	clean := baseline(false)
	flooded := baseline(true)
	t.Logf("delivery share: clean=%.3f flooded=%.3f", clean, flooded)
	if flooded >= clean {
		t.Errorf("DoS flood did not degrade delivery: clean=%.3f flooded=%.3f", clean, flooded)
	}
}

func TestSuppressorDropsAndDelays(t *testing.T) {
	k := sim.NewKernel(3)
	bounds := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.Point{X: 100, Y: 100}
	m.UpdatePosition(1, pos)
	m.UpdatePosition(2, geo.Point{X: 200, Y: 100})
	a, err := vnet.NewNode(k, m, 1, vnet.Config{}, func() (geo.Point, float64, float64) { return pos, 0, 0 })
	if err != nil {
		t.Fatal(err)
	}
	b, err := vnet.NewNode(k, m, 2, vnet.Config{}, func() (geo.Point, float64, float64) {
		return geo.Point{X: 200, Y: 100}, 0, 0
	})
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	var lastAt sim.Time
	inner := func(msg vnet.Message, relayer vnet.Addr) { received++; lastAt = k.Now() }
	rng := rand.New(rand.NewSource(4))
	sup, err := attack.InstallSuppressor(b, "data", inner, 0.5, 100*time.Millisecond, rng.Float64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		k.At(sim.Time(i)*50*time.Millisecond, func() {
			a.SendTo(2, a.NewMessage(2, "data", 100, 1, i))
		})
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if sup.Dropped == 0 {
		t.Error("suppressor dropped nothing")
	}
	if sup.Delayed == 0 {
		t.Error("suppressor delayed nothing")
	}
	if received == 0 || received == n {
		t.Errorf("received = %d, want partial delivery", received)
	}
	if lastAt == 0 {
		t.Error("no delivery timestamp")
	}
}

func TestSuppressorValidation(t *testing.T) {
	if _, err := attack.InstallSuppressor(nil, "k", func(vnet.Message, vnet.Addr) {}, 0.5, 0, rand.Float64); err == nil {
		t.Error("nil node")
	}
}

func TestFlooderValidation(t *testing.T) {
	s := highway(t, 1, 1)
	if _, err := attack.NewFlooder(s.Kernel, s.Medium, attackerBase, geo.Point{}, 0, 100); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := attack.NewFlooder(nil, s.Medium, attackerBase, geo.Point{}, 1, 100); err == nil {
		t.Error("nil kernel should error")
	}
}
