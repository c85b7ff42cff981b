// Package pki models the identity-management hierarchy of §IV.B: a
// Trusted Authority (TA) that enrolls vehicles, mints pseudonym-
// certificate pools with escrowed traceability, manages group membership
// for group-based authentication, and drives the revocation pipeline
// whose CRL growth experiment E5 measures.
//
// The TA is an offline/back-end entity: vehicles reach it at enrollment
// time (vehicle registration) and afterwards only through RSUs or the
// cellular uplink — the infrastructure-reliance property Fig. 2 and Fig. 5
// turn on.
package pki

import (
	"fmt"
	"io"
	"time"

	"vcloud/internal/cryptoprim"
)

// VehicleIdentity is a vehicle's real (legal) identity.
type VehicleIdentity string

// Enrollment is everything a vehicle walks away from registration with.
type Enrollment struct {
	Identity VehicleIdentity
	// longTerm holds the real-identity certificate and its key, issued
	// on first read like a pseudonym. It is never sent on air in
	// privacy-preserving protocols, so only the tests read it.
	longTerm *cryptoprim.PseudonymPool
	// Pseudonyms is the pre-assigned pseudonym pool, each certificate
	// issued on first presentation.
	Pseudonyms *cryptoprim.PseudonymPool
	// Group is the credential for group-based authentication.
	Group cryptoprim.GroupCred
	// Chain is the one-time-ID chain for randomized authentication.
	Chain *cryptoprim.IDChain
}

// certLifetime is the validity of issued certificates, in virtual time.
const certLifetime = 24 * time.Hour

// Config tunes the TA.
type Config struct {
	// PoolSize is the pseudonym batch size per vehicle. Default 20.
	PoolSize int
}

// TA is the trusted authority.
type TA struct {
	ca    *cryptoprim.CA
	group *cryptoprim.GroupManager
	crl   *cryptoprim.CRL
	cfg   Config
	rand  io.Reader

	// draws escrows each vehicle's key draws, the long-term one first
	// and then its pseudonyms in pool order: the TA derives a revoked
	// vehicle's serials from them, and a pseudonym's owner — the escrow
	// that makes pseudonym privacy *conditional* (Fig. 5: "the identity
	// issuer can easily track a vehicle").
	draws          map[VehicleIdentity][]cryptoprim.KeyDraw
	chainSeeds     map[VehicleIdentity][32]byte
	revokedVehicle map[VehicleIdentity]struct{}
	revVersion     uint64
}

// New creates a TA with a fresh root key drawn from rand.
func New(name string, rand io.Reader, cfg Config) (*TA, error) {
	if rand == nil {
		return nil, fmt.Errorf("pki: rand must not be nil")
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 20
	}
	ca, err := cryptoprim.NewCA(name, rand)
	if err != nil {
		return nil, err
	}
	gm, err := cryptoprim.NewGroupManager(name+"-group", rand)
	if err != nil {
		return nil, err
	}
	return &TA{
		ca:             ca,
		group:          gm,
		crl:            cryptoprim.NewCRL(4096),
		cfg:            cfg,
		rand:           rand,
		draws:          make(map[VehicleIdentity][]cryptoprim.KeyDraw),
		chainSeeds:     make(map[VehicleIdentity][32]byte),
		revokedVehicle: make(map[VehicleIdentity]struct{}),
	}, nil
}

// RootKey returns the TA verification key vehicles pin.
func (t *TA) RootKey() []byte { return t.ca.PublicKey() }

// GroupKey returns the group verification key.
func (t *TA) GroupKey() []byte { return t.group.PublicKey() }

// GroupManager exposes the group manager (for verifier-side revocation
// checks routed through the TA and for tracing).
func (t *TA) GroupManager() *cryptoprim.GroupManager { return t.group }

// CRL returns the live revocation list (verifiers hold a reference,
// modeling periodic CRL distribution).
func (t *TA) CRL() *cryptoprim.CRL { return t.crl }

// Enroll registers a vehicle: long-term certificate, pseudonym pool with
// escrowed draws, group credential, and ID chain with escrowed seed.
func (t *TA) Enroll(id VehicleIdentity) (*Enrollment, error) {
	if id == "" {
		return nil, fmt.Errorf("pki: vehicle identity must not be empty")
	}
	if _, ok := t.draws[id]; ok {
		return nil, fmt.Errorf("pki: vehicle %q already enrolled", id)
	}
	// Every byte the enrolment consumes is drawn here, in one fixed
	// order: the long-term key seed, each pseudonym's key seed and
	// subject, the group secret, the chain seed. Deriving a key pair and
	// certifying it is a pure function of those bytes, so it waits until
	// the certificate is first presented and never runs for one that is
	// not.
	draws := make([]cryptoprim.KeyDraw, 1+t.cfg.PoolSize)
	var err error
	if draws[0], err = cryptoprim.DrawKey([]byte(id), t.rand); err != nil {
		return nil, err
	}
	for i := 1; i < len(draws); i++ {
		if draws[i], err = cryptoprim.DrawPseudonym(t.rand); err != nil {
			return nil, err
		}
	}
	groupCred, err := t.group.Enroll(string(id), t.rand)
	if err != nil {
		return nil, err
	}
	chain, err := cryptoprim.NewIDChain(t.rand)
	if err != nil {
		return nil, err
	}
	longTerm, err := cryptoprim.NewPseudonymPool(t.ca, draws[:1], certLifetime)
	if err != nil {
		return nil, err
	}
	pool, err := cryptoprim.NewPseudonymPool(t.ca, draws[1:], certLifetime)
	if err != nil {
		return nil, err
	}
	t.draws[id] = draws
	t.chainSeeds[id] = chain.Seed()
	return &Enrollment{
		Identity:   id,
		longTerm:   longTerm,
		Pseudonyms: pool,
		Group:      groupCred,
		Chain:      chain,
	}, nil
}

// RevokeVehicle revokes a vehicle: every one of its pseudonym serials
// joins the CRL (the pool-size multiplication that makes pseudonym CRLs
// huge), and its group membership is revoked. The serials are derived
// from the escrowed draws; a serial needs no signature, so none is made.
func (t *TA) RevokeVehicle(id VehicleIdentity) error {
	draws, ok := t.draws[id]
	if !ok {
		return fmt.Errorf("pki: vehicle %q not enrolled", id)
	}
	if _, done := t.revokedVehicle[id]; done {
		return nil
	}
	t.revokedVehicle[id] = struct{}{}
	t.revVersion++
	for _, s := range t.ca.Serials(draws[1:], certLifetime) {
		t.crl.Add(s)
	}
	t.group.Revoke(string(id))
	return nil
}

// RevocationVersion increments on every revocation, letting verifiers
// cache derived revocation material until it changes.
func (t *TA) RevocationVersion() uint64 { return t.revVersion }

// HybridRevocationTags derives the trapdoor revocation tags for hybrid
// authentication: the one-time chain identities (indices 0..horizon) of
// every revoked vehicle, computable only from the escrowed seeds. A
// verifier holding these tags rejects a revoked vehicle's one-time IDs
// with a constant-time set probe — no per-pseudonym CRL needed (the
// [31] design point).
func (t *TA) HybridRevocationTags(horizon uint64) map[[32]byte]struct{} {
	tags := make(map[[32]byte]struct{})
	for id := range t.revokedVehicle {
		seed, ok := t.chainSeeds[id]
		if !ok {
			continue
		}
		for k := uint64(0); k <= horizon; k++ {
			tags[cryptoprim.ChainIDAt(seed, k)] = struct{}{}
		}
	}
	return tags
}
