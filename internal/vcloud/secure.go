package vcloud

import (
	"fmt"

	"vcloud/internal/auth"
	"vcloud/internal/cryptoprim"
	"vcloud/internal/mobility"
	"vcloud/internal/pki"
	"vcloud/internal/scenario"
	"vcloud/internal/vnet"
)

// Security configures the secure v-cloud architecture of §V.A: every
// vehicle enrolls with the TA, members mutually authenticate with a
// controller before joining, controllers only admit verified members,
// and revoked vehicles are excluded from the cloud entirely.
type Security struct {
	// TA is the trusted authority all vehicles enroll with.
	TA *pki.TA
	// Scheme selects the authentication protocol (default Hybrid — the
	// scheme E5 shows has constant-cost revocation).
	Scheme auth.Scheme
	// Cost is the virtual crypto cost model; zero value = defaults.
	Cost auth.CostModel
	// Metrics receives handshake telemetry (required).
	Metrics *auth.Metrics
	// CRLMode selects the pseudonym revocation-check structure (default
	// bloom).
	CRLMode auth.CRLMode
}

func (sec *Security) validate() error {
	if sec.TA == nil {
		return fmt.Errorf("vcloud: security requires a TA")
	}
	if sec.Metrics == nil {
		return fmt.Errorf("vcloud: security requires an auth.Metrics sink")
	}
	return nil
}

// SecureDeployment is a Deployment whose membership is gated by mutual
// authentication.
type SecureDeployment struct {
	*Deployment
	// Authenticators maps vehicles to their auth endpoints.
	Authenticators map[mobility.VehicleID]*auth.Authenticator

	sec Security
	// verified tracks, per node address, the set of peers whose
	// credentials that node has verified as a responder.
	verified map[vnet.Addr]map[vnet.Addr]bool
}

// DeploySecure assembles a vehicular cloud where joining requires a
// successful mutual authentication handshake with the controller. RSU
// controllers get their own enrollment (identity "rsu-<n>").
func DeploySecure(s *scenario.Scenario, arch Architecture, cfg DeployConfig, sec Security, stats *Stats) (*SecureDeployment, error) {
	if err := sec.validate(); err != nil {
		return nil, err
	}
	if sec.Scheme == 0 {
		sec.Scheme = auth.Hybrid
	}
	if sec.CRLMode == 0 {
		sec.CRLMode = auth.CRLBloom
	}
	sd := &SecureDeployment{
		Authenticators: make(map[mobility.VehicleID]*auth.Authenticator),
		sec:            sec,
		verified:       make(map[vnet.Addr]map[vnet.Addr]bool),
	}

	cfg.sec = sd
	d, err := Deploy(s, arch, cfg, stats)
	if err != nil {
		return nil, err
	}
	sd.Deployment = d
	return sd, nil
}

// authorize runs member's mutual-authentication handshake with
// controller before its first join and reports the outcome to done.
func (sd *SecureDeployment) authorize(member, controller vnet.Addr, done func(ok bool)) {
	a, ok := sd.Authenticators[mobility.VehicleID(member)]
	if !ok {
		done(false)
		return
	}
	if err := a.Authenticate(controller, func(r auth.Result) { done(r.OK) }); err != nil {
		done(false)
	}
}

// anchors builds the verifier trust state from the TA, with cached
// hybrid trapdoor tags refreshed on revocation-version change.
func (sd *SecureDeployment) anchors() auth.Anchors {
	var tagsVersion uint64
	var tags map[[32]byte]struct{}
	ta := sd.sec.TA
	return auth.Anchors{
		RootKey:  ta.RootKey(),
		GroupKey: ta.GroupKey(),
		CRL:      ta.CRL(),
		CRLMode:  sd.sec.CRLMode,
		GroupRevoked: func(sig cryptoprim.GroupSig) (bool, int) {
			return !ta.GroupManager().CheckNotRevoked(sig), ta.CRL().Len() / 8
		},
		HybridRevoked: func(id [32]byte) bool {
			if tags == nil || tagsVersion != ta.RevocationVersion() {
				tagsVersion = ta.RevocationVersion()
				tags = ta.HybridRevocationTags(4096)
			}
			_, revoked := tags[id]
			return revoked
		},
	}
}

// attachAuth enrolls a node and attaches its authenticator, once per
// node at deploy: its credentials outlive the agents it runs. Responder
// verifications populate the node's verified-peer set.
func (sd *SecureDeployment) attachAuth(node *vnet.Node, identity string) error {
	enr, err := sd.sec.TA.Enroll(pki.VehicleIdentity(identity))
	if err != nil {
		return err
	}
	a, err := auth.New(node, enr, sd.anchors(), sd.sec.Scheme, sd.sec.Cost, sd.sec.Metrics)
	if err != nil {
		return err
	}
	self := node.Addr()
	a.OnPeerVerified(func(peer vnet.Addr) {
		set, ok := sd.verified[self]
		if !ok {
			set = make(map[vnet.Addr]bool)
			sd.verified[self] = set
		}
		set[peer] = true
	})
	if !scenario.IsRSU(self) {
		id := mobility.VehicleID(self)
		sd.Authenticators[id] = a
	}
	return nil
}
