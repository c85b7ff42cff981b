package pki

import (
	"fmt"

	"vcloud/internal/cryptoprim"
	"vcloud/internal/metrics"
	"vcloud/internal/vnet"
)

// The pseudonym refill protocol of §V.A's v-cloud initialization: a
// vehicle whose pre-issued pseudonym pool is nearly exhausted requests a
// fresh batch from the TA through an RSU. The request is signed with the
// vehicle's long-term key (never its pseudonyms — the TA must know who
// it is provisioning), and the response carries the new pool. The RSU is
// a transparent relay to the TA; the TA records the new serials in its
// escrow so conditional traceability survives refills.

const (
	refillReqKind  = "pki.refill.req"
	refillRespKind = "pki.refill.resp"
)

// refillReq is the wire request.
type refillReq struct {
	Cert  cryptoprim.Certificate // long-term certificate
	Nonce uint64
	Sig   []byte // signature over (identity, nonce)
}

// refillResp is the wire response.
type refillResp struct {
	Nonce uint64
	Pool  *cryptoprim.PseudonymPool
}

// RefillStats aggregates refill-protocol outcomes.
type RefillStats struct {
	Requests  metrics.Counter
	Issued    metrics.Counter
	Rejected  metrics.Counter // bad signature, unknown or revoked vehicle
	BytesSent metrics.Counter
}

// RefillServer runs at an RSU (or any TA-connected node) and services
// pseudonym refill requests.
type RefillServer struct {
	node    *vnet.Node
	ta      *TA
	stats   *RefillStats
	stopped bool
}

// NewRefillServer attaches a refill service to node, backed by ta.
func NewRefillServer(node *vnet.Node, ta *TA, stats *RefillStats) (*RefillServer, error) {
	if node == nil || ta == nil || stats == nil {
		return nil, fmt.Errorf("pki: node, ta and stats must not be nil")
	}
	s := &RefillServer{node: node, ta: ta, stats: stats}
	node.Handle(refillReqKind, s.onRequest)
	return s, nil
}

// Stop detaches the server.
func (s *RefillServer) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.node.Handle(refillReqKind, nil)
}

func refillChallenge(identity []byte, nonce uint64) []byte {
	d := cryptoprim.Digest([]byte("pki.refill"), identity, []byte(fmt.Sprintf("%d", nonce)))
	return d[:]
}

func (s *RefillServer) onRequest(msg vnet.Message, _ vnet.Addr) {
	if s.stopped {
		return
	}
	req, ok := msg.Payload.(refillReq)
	if !ok {
		return
	}
	s.stats.Requests.Inc()
	now := s.node.Kernel().Now()
	// The long-term certificate must be TA-issued and unexpired, the
	// signature must verify, and the vehicle must not be revoked.
	if err := cryptoprim.CheckCert(&req.Cert, s.ta.RootKey(), now); err != nil {
		s.stats.Rejected.Inc()
		return
	}
	identity := VehicleIdentity(req.Cert.Subject)
	if s.ta.IsRevoked(identity) {
		s.stats.Rejected.Inc()
		return
	}
	if !cryptoprim.Verify(req.Cert.PubKey, refillChallenge(req.Cert.Subject, req.Nonce), req.Sig) {
		s.stats.Rejected.Inc()
		return
	}
	pool, err := s.ta.RefillPseudonyms(identity)
	if err != nil {
		s.stats.Rejected.Inc()
		return
	}
	s.stats.Issued.Inc()
	size := 64 + pool.Size()*cryptoprim.CertWireSize
	s.stats.BytesSent.Add(size)
	resp := s.node.NewMessage(msg.Origin, refillRespKind, size, 1, refillResp{Nonce: req.Nonce, Pool: pool})
	s.node.SendTo(msg.Origin, resp)
}

// RefillClient runs at a vehicle and requests fresh pseudonym pools.
type RefillClient struct {
	node    *vnet.Node
	enroll  *Enrollment
	nonce   uint64
	pending map[uint64]func(*cryptoprim.PseudonymPool)
	stopped bool
}

// NewRefillClient attaches a refill client to the vehicle's node.
func NewRefillClient(node *vnet.Node, enroll *Enrollment) (*RefillClient, error) {
	if node == nil || enroll == nil {
		return nil, fmt.Errorf("pki: node and enrollment must not be nil")
	}
	c := &RefillClient{node: node, enroll: enroll, pending: make(map[uint64]func(*cryptoprim.PseudonymPool))}
	node.Handle(refillRespKind, c.onResponse)
	return c, nil
}

// Stop detaches the client.
func (c *RefillClient) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.node.Handle(refillRespKind, nil)
}

// NeedsRefill reports whether the pool has wrapped (every pseudonym used
// at least once) — the trigger real deployments act on before
// linkability accumulates.
func (c *RefillClient) NeedsRefill() bool {
	return c.enroll.Pseudonyms.UsedCount() >= c.enroll.Pseudonyms.Size()
}

// Request asks the refill service at server for a fresh pool; on success
// the enrollment's pool is replaced and done (if non-nil) is called.
func (c *RefillClient) Request(server vnet.Addr, done func(*cryptoprim.PseudonymPool)) {
	if c.stopped {
		return
	}
	c.nonce++
	nonce := c.nonce
	c.pending[nonce] = done
	req := refillReq{
		Cert:  c.enroll.LongTerm,
		Nonce: nonce,
		Sig:   c.enroll.LongKey.Sign(refillChallenge([]byte(c.enroll.Identity), nonce)),
	}
	msg := c.node.NewMessage(server, refillReqKind, cryptoprim.CertWireSize+96, 1, req)
	c.node.SendTo(server, msg)
}

func (c *RefillClient) onResponse(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	resp, ok := msg.Payload.(refillResp)
	if !ok || resp.Pool == nil {
		return
	}
	done, ok := c.pending[resp.Nonce]
	if !ok {
		return
	}
	delete(c.pending, resp.Nonce)
	c.enroll.Pseudonyms = resp.Pool
	if done != nil {
		done(resp.Pool)
	}
}

// RefillPseudonyms mints a fresh pseudonym pool for an enrolled,
// non-revoked vehicle and escrows the new serials.
func (t *TA) RefillPseudonyms(id VehicleIdentity) (*cryptoprim.PseudonymPool, error) {
	if _, ok := t.vehicleSerials[id]; !ok {
		return nil, fmt.Errorf("pki: vehicle %q not enrolled", id)
	}
	if t.IsRevoked(id) {
		return nil, fmt.Errorf("pki: vehicle %q is revoked", id)
	}
	pool, serials, err := cryptoprim.IssuePseudonyms(t.ca, t.cfg.PoolSize, certLifetime, t.rand)
	if err != nil {
		return nil, err
	}
	for _, s := range serials {
		t.pseudonymOwner[s] = id
	}
	t.vehicleSerials[id] = append(t.vehicleSerials[id], serials...)
	return pool, nil
}
