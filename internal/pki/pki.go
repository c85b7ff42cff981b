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
	// LongTerm is the real-identity certificate (never sent on air in
	// privacy-preserving protocols).
	LongTerm cryptoprim.Certificate
	LongKey  cryptoprim.KeyPair
	// Pseudonyms is the pre-issued pseudonym pool.
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

	// pseudonymOwner maps pseudonym serials to real identities — the
	// escrow that makes pseudonym privacy *conditional* (Fig. 5: "the
	// identity issuer can easily track a vehicle").
	pseudonymOwner map[cryptoprim.Serial]VehicleIdentity
	// vehicleSerials lists each vehicle's pseudonym serials for
	// revocation.
	vehicleSerials map[VehicleIdentity][]cryptoprim.Serial
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
		pseudonymOwner: make(map[cryptoprim.Serial]VehicleIdentity),
		vehicleSerials: make(map[VehicleIdentity][]cryptoprim.Serial),
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
// escrowed mapping, group credential, and ID chain with escrowed seed.
func (t *TA) Enroll(id VehicleIdentity) (*Enrollment, error) {
	if id == "" {
		return nil, fmt.Errorf("pki: vehicle identity must not be empty")
	}
	if _, ok := t.vehicleSerials[id]; ok {
		return nil, fmt.Errorf("pki: vehicle %q already enrolled", id)
	}
	longKey, err := cryptoprim.GenerateKey(t.rand)
	if err != nil {
		return nil, err
	}
	longCert, err := t.ca.Issue([]byte(id), longKey.Public, certLifetime)
	if err != nil {
		return nil, err
	}
	pool, serials, err := cryptoprim.IssuePseudonyms(t.ca, t.cfg.PoolSize, certLifetime, t.rand)
	if err != nil {
		return nil, err
	}
	for _, s := range serials {
		t.pseudonymOwner[s] = id
	}
	t.vehicleSerials[id] = serials
	groupCred, err := t.group.Enroll(string(id), t.rand)
	if err != nil {
		return nil, err
	}
	chain, err := cryptoprim.NewIDChain(t.rand)
	if err != nil {
		return nil, err
	}
	t.chainSeeds[id] = chain.Seed()
	return &Enrollment{
		Identity:   id,
		LongTerm:   longCert,
		LongKey:    longKey,
		Pseudonyms: pool,
		Group:      groupCred,
		Chain:      chain,
	}, nil
}

// NumEnrolled returns the number of registered vehicles.
func (t *TA) NumEnrolled() int { return len(t.vehicleSerials) }

// RevokeVehicle revokes a vehicle: every one of its pseudonym serials
// joins the CRL (the pool-size multiplication that makes pseudonym CRLs
// huge), and its group membership is revoked.
func (t *TA) RevokeVehicle(id VehicleIdentity) error {
	serials, ok := t.vehicleSerials[id]
	if !ok {
		return fmt.Errorf("pki: vehicle %q not enrolled", id)
	}
	if _, done := t.revokedVehicle[id]; done {
		return nil
	}
	t.revokedVehicle[id] = struct{}{}
	t.revVersion++
	for _, s := range serials {
		t.crl.Add(s)
	}
	t.group.Revoke(string(id))
	return nil
}

// IsRevoked reports whether the vehicle has been revoked.
func (t *TA) IsRevoked(id VehicleIdentity) bool {
	_, ok := t.revokedVehicle[id]
	return ok
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

// TracePseudonym reveals the owner of a pseudonym certificate — the
// conditional-privacy escape hatch available only to the authority
// (§V.A "the authority should be able to reveal vehicles' real
// identities").
func (t *TA) TracePseudonym(serial cryptoprim.Serial) (VehicleIdentity, bool) {
	id, ok := t.pseudonymOwner[serial]
	return id, ok
}

// TraceGroupSig opens a group signature to the member's real identity.
func (t *TA) TraceGroupSig(sig cryptoprim.GroupSig) (VehicleIdentity, bool) {
	id := t.group.Open(sig)
	if id == "" {
		return "", false
	}
	return VehicleIdentity(id), true
}

// TraceChainID identifies which enrolled vehicle produced a one-time
// chain identity by checking escrowed seeds (index bounded by maxIndex).
func (t *TA) TraceChainID(id [32]byte, maxIndex uint64) (VehicleIdentity, bool) {
	for veh, seed := range t.chainSeeds {
		for k := uint64(0); k <= maxIndex; k++ {
			if cryptoprim.VerifyChainID(seed, k, id) {
				return veh, true
			}
		}
	}
	return "", false
}
