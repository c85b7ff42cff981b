package cryptoprim

import (
	"crypto/ed25519"
	"time"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Name returns the authority name.
func (ca *CA) Name() string { return ca.name }

// Serials returns a copy of the revoked serials (for CRL distribution).
func (c *CRL) Serials() []Serial {
	out := make([]Serial, len(c.serials))
	copy(out, c.serials)
	return out
}

// GroupID returns the group identifier.
func (gm *GroupManager) GroupID() string { return gm.groupID }

// CanSign reports whether the pair holds the private half.
func (k KeyPair) CanSign() bool { return len(k.private) == ed25519.PrivateKeySize }

// Size returns the pool size.
func (p *PseudonymPool) Size() int { return len(p.entries) }

// Issued returns how many of the pool's pseudonyms have been issued.
func (p *PseudonymPool) Issued() int {
	n := 0
	for i := range p.entries {
		if p.entries[i].Cert.Signature != nil {
			n++
		}
	}
	return n
}

// UsedCount returns how many rotations have occurred.
func (p *PseudonymPool) UsedCount() int { return p.used }

// VerifyChainID lets a party holding the seed confirm that id is the k-th
// identity of the chain (the TA-side traceability path).
func VerifyChainID(seed [32]byte, k uint64, id [32]byte) bool {
	return ChainIDAt(seed, k) == id
}

// CheckCert verifies the certificate's signature under the issuer key and
// its validity at virtual time now.
func CheckCert(c *Certificate, issuerPub ed25519.PublicKey, now time.Duration) error {
	return (*VerifyMemo)(nil).CheckCert(c, issuerPub, now)
}
