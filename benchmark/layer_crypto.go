package main

import (
	"io"

	"vcloud"
	"vcloud/internal/access"
	"vcloud/internal/auth"
	"vcloud/internal/cryptoprim"
	"vcloud/internal/pki"
)

// Adapter for cryptoprim, pki, auth and access. The facade creates a
// trusted authority and deploys whole secure clouds; secure_join drives
// enrolment, bare authenticators per scheme, and sealed packages itself.

type (
	enrollment    = pki.Enrollment
	authScheme    = auth.Scheme
	authResult    = auth.Result
	authenticator = auth.Authenticator
	accessPolicy  = access.Policy
	accessAttr    = access.AttributeID
	accessContext = access.Context
	accessPackage = access.Package
	accessKeyring = access.Keyring
	accessAuth    = access.Authority
)

// authArm is one of the four authentication arms of Fig. 5.
type authArm struct {
	name   string
	scheme authScheme
	bloom  bool // pseudonym CRL probed through its bloom filter
}

var authArms = []authArm{
	{"pseudonym-linear", auth.Pseudonym, false},
	{"pseudonym-bloom", auth.Pseudonym, true},
	{"group", auth.Group, false},
	{"hybrid", auth.Hybrid, false},
}

// enroll registers one identity with the TA.
func enroll(ta *vcloud.TrustedAuthority, id string) (*enrollment, error) {
	return ta.Enroll(pki.VehicleIdentity(id))
}

func revoke(ta *vcloud.TrustedAuthority, id string) error {
	return ta.RevokeVehicle(pki.VehicleIdentity(id))
}

// newAuthenticator attaches an authenticator of one arm to a node. The
// verifier-side anchors hold the TA's live CRL, the group manager's
// revocation check (charged one token per revoked member) and the
// hybrid scheme's trapdoor tags.
func newAuthenticator(node *vcloud.Node, enr *enrollment, ta *vcloud.TrustedAuthority, arm authArm, revoked int, tags map[[32]byte]struct{}, met *vcloud.AuthMetrics) (*authenticator, error) {
	anchors := auth.Anchors{
		RootKey:  ta.RootKey(),
		GroupKey: ta.GroupKey(),
		CRL:      ta.CRL(),
		CRLMode:  auth.CRLLinear,
		GroupRevoked: func(sig cryptoprim.GroupSig) (bool, int) {
			return !ta.GroupManager().CheckNotRevoked(sig), revoked
		},
		HybridRevoked: func(id [32]byte) bool {
			_, hit := tags[id]
			return hit
		},
	}
	if arm.bloom {
		anchors.CRLMode = auth.CRLBloom
	}
	return auth.New(node, enr, anchors, arm.scheme, auth.CostModel{}, met)
}

// Attribute-based access control.

func newAccessAuthority(name string, rand io.Reader) (*accessAuth, error) {
	return access.NewAuthority(name, rand)
}

func newKeyring() *accessKeyring { return access.NewKeyring() }

// sealPackage encrypts data under policy, signed by a fresh owner key.
func sealPackage(resource string, data []byte, policy accessPolicy, nonce uint64, au *accessAuth, rand io.Reader) (*accessPackage, error) {
	owner, err := cryptoprim.GenerateKey(rand)
	if err != nil {
		return nil, err
	}
	lookup := func(a accessAttr) (access.AttrKey, bool) { return au.Grant(a), true }
	return access.Seal(resource, data, policy, nonce, owner, lookup, rand)
}

func readRule(anyOf ...[]accessAttr) access.Rule {
	r := access.Rule{Action: access.Read}
	for _, c := range anyOf {
		r.AnyOf = append(r.AnyOf, access.Clause(c))
	}
	return r
}

// evaluateRead is the policy decision point for a read.
func evaluateRead(p *accessPolicy, ring *accessKeyring, ctx accessContext) bool {
	return access.Evaluate(p, ring.Attrs(), access.Read, ctx).Allowed
}

// referenceRead is the benchmark's own reading of a policy, against
// which the program's decisions are checked: a read is allowed iff some
// read rule's context holds and the subject holds every attribute of one
// of its clauses.
func referenceRead(p *accessPolicy, has func(accessAttr) bool, ctx accessContext) bool {
	for _, rule := range p.Rules {
		if rule.Action != access.Read || !rule.Context.Satisfied(ctx) {
			continue
		}
		for _, clause := range rule.AnyOf {
			all := true
			for _, a := range clause {
				all = all && has(a)
			}
			if all {
				return true
			}
		}
	}
	return false
}

// probeCrypto times the primitives every handshake is made of.
func probeCrypto(layer map[string]float64, rand io.Reader) {
	key, err := cryptoprim.GenerateKey(rand)
	if err != nil {
		return
	}
	msg := make([]byte, 32)
	var sig []byte
	const n = 2000
	layer["cryptoprim.probe_sign_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			msg[0] = byte(i)
			sig = key.Sign(msg)
		}
	})
	ok := true
	layer["cryptoprim.probe_verify_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			ok = cryptoprim.Verify(key.Public, msg, sig) && ok
		}
	})
	gm, err := cryptoprim.NewGroupManager("probe", rand)
	if err != nil {
		return
	}
	cred, err := gm.Enroll("member", rand)
	if err != nil {
		return
	}
	gs := cred.Sign(msg, 1)
	layer["cryptoprim.probe_groupsig_verify_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			ok = cryptoprim.VerifyGroupSig(gm.PublicKey(), msg, gs) && ok
		}
	})
	if !ok {
		layer["cryptoprim.probe_verify_ns"] = 0 // a probe that failed to verify measured nothing
	}
}
