// Package auth implements the privacy-preserving V2V authentication
// protocols the paper surveys in §IV.B and contrasts in Fig. 5:
//
//   - Pseudonym-based: each handshake presents a TA-issued pseudonym
//     certificate and a signature; the verifier checks the certificate,
//     the signature, and the (large) pseudonym CRL. Strong unlinkability
//     toward peers while pseudonyms rotate, but verification cost grows
//     with the revoked population × pool size, and the TA can trace.
//   - Group-based: one group signature, one constant-time verification,
//     no per-vehicle CRL — but the group manager can open every
//     signature ("conditional privacy") and joining requires
//     infrastructure contact.
//   - Hybrid (Rajput et al. [31]): a group signature plus a one-time
//     chain identity acting as a trapdoor — constant-time verification
//     without vehicle-side CRL or group management, traceable only by
//     the TA through the trapdoor.
//
// Crypto operations execute for real (ed25519 / HMAC, so forgeries
// actually fail) while their *time* cost is charged to the virtual clock
// through a CostModel calibrated to automotive-grade ECDSA, making
// handshake-latency experiments meaningful.
package auth

import (
	"fmt"

	"time"
	"vcloud/internal/cryptoprim"
	"vcloud/internal/metrics"
	"vcloud/internal/pki"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// Scheme selects the authentication protocol.
type Scheme int

// Schemes.
const (
	Pseudonym Scheme = iota + 1
	Group
	Hybrid
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Pseudonym:
		return "pseudonym"
	case Group:
		return "group"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// CRLMode selects the revocation-check structure (E5 ablation).
type CRLMode int

// CRL lookup modes.
const (
	CRLLinear CRLMode = iota + 1
	CRLBloom
)

// CostModel charges virtual time for cryptographic work, calibrated to
// an automotive OBU doing ECDSA-P256 (~1-2 ms/op class hardware).
type CostModel struct {
	Sign        sim.Time // asymmetric signature generation
	Verify      sim.Time // asymmetric signature verification
	CRLPerEntry sim.Time // linear CRL scan, per entry examined
	CRLBloom    sim.Time // constant bloom pre-check
}

// DefaultCostModel returns the calibrated defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		Sign:        1 * time.Millisecond,
		Verify:      2 * time.Millisecond,
		CRLPerEntry: 500 * time.Nanosecond,
		CRLBloom:    2 * time.Microsecond,
	}
}

// Metrics aggregates handshake outcomes across authenticators sharing a
// scheme (one instance per experiment arm).
type Metrics struct {
	Attempts   metrics.Counter
	Successes  metrics.Counter
	Failures   metrics.Counter // cryptographic rejections
	Timeouts   metrics.Counter
	BytesSent  metrics.Counter
	VerifyOps  metrics.Counter
	CRLScanned metrics.Counter // exact entries examined
	Latency    metrics.Histogram
}

// Result reports one handshake outcome to the initiator.
type Result struct {
	Peer    vnet.Addr
	OK      bool
	Latency sim.Time
	Reason  string
}

// Anchors is the verifier-side trust state every vehicle holds: the TA
// root key, the group public key, a reference to the (periodically
// distributed) CRL, and how to scan it.
type Anchors struct {
	RootKey  []byte
	GroupKey []byte
	CRL      *cryptoprim.CRL
	CRLMode  CRLMode
	// GroupRevoked checks a group signature against the verifier's local
	// revocation tokens; its cost scales with the number of revoked
	// members (len). Nil means no group revocation data.
	GroupRevoked func(sig cryptoprim.GroupSig) (revoked bool, tokens int)
	// HybridRevoked checks a one-time chain identity against the TA's
	// published trapdoor tags (a constant-time set probe — the hybrid
	// scheme's revocation path). Nil means no hybrid revocation data.
	HybridRevoked func(oneTimeID [32]byte) bool
}

const (
	reqKind  = "auth.req"
	respKind = "auth.resp"
	// handshakeTimeout bounds how long the initiator waits; the paper's
	// stringent-time-constraints argument is about exactly this window.
	handshakeTimeout = 2 * time.Second
)

// proof is the scheme-specific evidence inside handshake messages.
type proof struct {
	Scheme Scheme
	// Pseudonym path.
	Cert cryptoprim.Certificate
	Sig  []byte
	// Group / hybrid path.
	GroupSig cryptoprim.GroupSig
	// Hybrid trapdoor.
	OneTimeID [32]byte
}

type authReq struct {
	Nonce uint64
	Proof proof
}

type authResp struct {
	Nonce uint64 // echoes the request nonce
	Proof proof
}

// Authenticator runs handshakes for one vehicle.
type Authenticator struct {
	node    *vnet.Node
	enroll  *pki.Enrollment
	anchors Anchors
	scheme  Scheme
	cost    CostModel
	met     *Metrics
	// certs remembers peer certificates whose issuer signature this node
	// has verified; expiry and revocation are still checked per handshake,
	// and cost.Verify / VerifyOps still charged: the modelled OBU has no
	// such memory.
	certs cryptoprim.VerifyMemo

	nonce   uint64
	pending map[uint64]*pendingHS
	stopped bool
	// peerVerified observers run at the responder after a peer's proof
	// checks out (the hook secure cloud formation builds on).
	peerVerified []func(peer vnet.Addr)
}

type pendingHS struct {
	peer    vnet.Addr
	started sim.Time
	done    func(Result)
	timer   sim.EventID
}

// New creates an authenticator on node using the given scheme.
func New(node *vnet.Node, enroll *pki.Enrollment, anchors Anchors, scheme Scheme, cost CostModel, met *Metrics) (*Authenticator, error) {
	if node == nil || enroll == nil || met == nil {
		return nil, fmt.Errorf("auth: node, enrollment and metrics must not be nil")
	}
	if scheme < Pseudonym || scheme > Hybrid {
		return nil, fmt.Errorf("auth: unknown scheme %d", scheme)
	}
	if len(anchors.RootKey) == 0 {
		return nil, fmt.Errorf("auth: anchors must include the TA root key")
	}
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	a := &Authenticator{
		node:    node,
		enroll:  enroll,
		anchors: anchors,
		scheme:  scheme,
		cost:    cost,
		met:     met,
		pending: make(map[uint64]*pendingHS),
	}
	node.Handle(reqKind, a.onRequest)
	node.Handle(respKind, a.onResponse)
	return a, nil
}

// Stop detaches the authenticator.
func (a *Authenticator) Stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	a.node.Handle(reqKind, nil)
	a.node.Handle(respKind, nil)
}

// OnPeerVerified registers an observer that fires whenever this node,
// acting as responder, successfully verifies an initiator's credentials.
// Secure v-cloud formation (§V.A) uses this to gate cloud membership.
func (a *Authenticator) OnPeerVerified(fn func(peer vnet.Addr)) {
	if fn != nil {
		a.peerVerified = append(a.peerVerified, fn)
	}
}

// wireSize returns the on-air bytes of a proof.
func wireSize(s Scheme) int {
	switch s {
	case Pseudonym:
		return cryptoprim.CertWireSize + 64 + 16
	case Group:
		return cryptoprim.GroupSigWireSize + 16
	case Hybrid:
		return cryptoprim.GroupSigWireSize + 32 + 16
	default:
		return 64
	}
}

// challenge builds the byte string both sides sign.
func challenge(nonce uint64, initiator, responder vnet.Addr, phase byte) []byte {
	d := cryptoprim.Digest(
		[]byte{phase},
		[]byte(fmt.Sprintf("%d|%d|%d", nonce, initiator, responder)),
	)
	return d[:]
}

// makeProof signs the challenge under the active scheme. It also charges
// the signing cost by returning the virtual delay the caller schedules.
func (a *Authenticator) makeProof(ch []byte, nonce uint64) (proof, sim.Time) {
	switch a.scheme {
	case Pseudonym:
		entry := a.enroll.Pseudonyms.Current()
		p := proof{Scheme: Pseudonym, Cert: entry.Cert, Sig: entry.Key.Sign(ch)}
		a.enroll.Pseudonyms.Rotate()
		return p, a.cost.Sign
	case Group:
		return proof{Scheme: Group, GroupSig: a.enroll.Group.Sign(ch, nonce)}, a.cost.Sign
	default: // Hybrid
		return proof{
			Scheme:    Hybrid,
			GroupSig:  a.enroll.Group.Sign(ch, nonce),
			OneTimeID: a.enroll.Chain.Next(),
		}, a.cost.Sign
	}
}

// verifyProof checks a peer's proof against the anchors, returning the
// verdict and the virtual time the verification consumed.
func (a *Authenticator) verifyProof(p proof, ch []byte, now sim.Time) (bool, string, sim.Time) {
	switch p.Scheme {
	case Pseudonym:
		cost := a.cost.Verify // certificate check
		if err := a.certs.CheckCert(&p.Cert, a.anchors.RootKey, time.Duration(now)); err != nil {
			a.met.VerifyOps.Inc()
			return false, "bad certificate", cost
		}
		cost += a.cost.Verify // signature check
		a.met.VerifyOps.Add(2)
		if !cryptoprim.Verify(p.Cert.PubKey, ch, p.Sig) {
			return false, "bad signature", cost
		}
		if a.anchors.CRL != nil {
			revoked, scanned := false, 0
			if a.anchors.CRLMode == CRLBloom {
				revoked, scanned = a.anchors.CRL.ContainsBloom(p.Cert.SerialOf())
				cost += a.cost.CRLBloom + sim.Time(scanned)*a.cost.CRLPerEntry
			} else {
				revoked, scanned = a.anchors.CRL.ContainsLinear(p.Cert.SerialOf())
				cost += sim.Time(scanned) * a.cost.CRLPerEntry
			}
			a.met.CRLScanned.Add(scanned)
			if revoked {
				return false, "revoked pseudonym", cost
			}
		}
		return true, "", cost
	case Group, Hybrid:
		cost := a.cost.Verify
		a.met.VerifyOps.Inc()
		if len(a.anchors.GroupKey) == 0 {
			return false, "no group key", cost
		}
		if !cryptoprim.VerifyGroupSig(a.anchors.GroupKey, ch, p.GroupSig) {
			return false, "bad group signature", cost
		}
		if p.Scheme == Group && a.anchors.GroupRevoked != nil {
			revoked, tokens := a.anchors.GroupRevoked(p.GroupSig)
			cost += sim.Time(tokens) * a.cost.CRLPerEntry
			a.met.CRLScanned.Add(tokens)
			if revoked {
				return false, "revoked member", cost
			}
		}
		// Hybrid: revocation via TA-published trapdoor tags — a single
		// constant-time probe, regardless of revoked population.
		if p.Scheme == Hybrid {
			cost += a.cost.CRLBloom
			if a.anchors.HybridRevoked != nil && a.anchors.HybridRevoked(p.OneTimeID) {
				return false, "revoked (trapdoor)", cost
			}
		}
		return true, "", cost
	default:
		return false, "unknown scheme", 0
	}
}

// Authenticate initiates a mutual handshake with peer. done receives the
// outcome exactly once.
func (a *Authenticator) Authenticate(peer vnet.Addr, done func(Result)) error {
	if a.stopped {
		return fmt.Errorf("auth: authenticator stopped")
	}
	if peer == a.node.Addr() {
		return fmt.Errorf("auth: cannot authenticate to self")
	}
	a.nonce++
	nonce := a.nonce
	ch := challenge(nonce, a.node.Addr(), peer, 1)
	p, signCost := a.makeProof(ch, nonce)
	a.met.Attempts.Inc()
	started := a.node.Kernel().Now()
	hs := &pendingHS{peer: peer, started: started, done: done}
	a.pending[nonce] = hs
	hs.timer = a.node.Kernel().After(handshakeTimeout, func() {
		if _, ok := a.pending[nonce]; !ok {
			return
		}
		delete(a.pending, nonce)
		a.met.Timeouts.Inc()
		if done != nil {
			done(Result{Peer: peer, OK: false, Reason: "timeout"})
		}
	})
	size := wireSize(a.scheme)
	a.met.BytesSent.Add(size)
	// Charge signing cost before the frame leaves.
	a.node.Kernel().After(signCost, func() {
		if a.stopped {
			return
		}
		msg := a.node.NewMessage(peer, reqKind, size, 1, authReq{Nonce: nonce, Proof: p})
		a.node.SendTo(peer, msg)
	})
	return nil
}

// onRequest runs at the responder.
func (a *Authenticator) onRequest(msg vnet.Message, relayer vnet.Addr) {
	if a.stopped {
		return
	}
	req, ok := msg.Payload.(authReq)
	if !ok {
		return
	}
	initiator := msg.Origin
	ch := challenge(req.Nonce, initiator, a.node.Addr(), 1)
	now := a.node.Kernel().Now()
	okv, _, vCost := a.verifyProof(req.Proof, ch, now)
	if !okv {
		a.met.Failures.Inc()
		return // silently drop forgeries, as real protocols do
	}
	for _, fn := range a.peerVerified {
		fn(initiator)
	}
	// Respond with our own proof over phase-2 challenge.
	ch2 := challenge(req.Nonce, initiator, a.node.Addr(), 2)
	p, signCost := a.makeProof(ch2, req.Nonce)
	size := wireSize(a.scheme)
	a.met.BytesSent.Add(size)
	a.node.Kernel().After(vCost+signCost, func() {
		if a.stopped {
			return
		}
		resp := a.node.NewMessage(initiator, respKind, size, 1, authResp{Nonce: req.Nonce, Proof: p})
		a.node.SendTo(initiator, resp)
	})
}

// onResponse runs at the initiator.
func (a *Authenticator) onResponse(msg vnet.Message, relayer vnet.Addr) {
	if a.stopped {
		return
	}
	resp, ok := msg.Payload.(authResp)
	if !ok {
		return
	}
	hs, ok := a.pending[resp.Nonce]
	if !ok || hs.peer != msg.Origin {
		return
	}
	ch2 := challenge(resp.Nonce, a.node.Addr(), msg.Origin, 2)
	now := a.node.Kernel().Now()
	okv, reason, vCost := a.verifyProof(resp.Proof, ch2, now)
	// Complete after the verification cost elapses.
	a.node.Kernel().After(vCost, func() {
		cur, still := a.pending[resp.Nonce]
		if !still || cur != hs {
			return
		}
		delete(a.pending, resp.Nonce)
		a.node.Kernel().Cancel(hs.timer)
		lat := a.node.Kernel().Now() - hs.started
		if okv {
			a.met.Successes.Inc()
			a.met.Latency.ObserveDuration(lat)
		} else {
			a.met.Failures.Inc()
		}
		if hs.done != nil {
			hs.done(Result{Peer: hs.peer, OK: okv, Latency: lat, Reason: reason})
		}
	})
}
