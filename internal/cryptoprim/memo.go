package cryptoprim

import (
	"crypto/ed25519"
	"crypto/sha256"
)

// VerifyMemo lets one relying party skip the curve arithmetic for a
// signed object it has already verified: a gate meeting a pseudonym
// certificate again, a vehicle reopening a sealed package. It remembers
// only (pub, sig, msg) triples that verified TRUE, keyed by a SHA-256
// over all three, so a forgery or a single changed byte always reaches
// ed25519.Verify. Checks that depend on more than those bytes (expiry,
// revocation) are not its business and must still run every time.
//
// A memo belongs to the party doing the checking — never to the object
// checked, never to a package-level variable — and is not safe for
// concurrent use. The zero value is ready; a nil memo verifies every
// time.
type VerifyMemo struct {
	verified map[[sha256.Size]byte]struct{}
}

// memoCap bounds a memo's memory; a full memo is cleared and refills.
const memoCap = 4096

// Verify reports what Verify(pub, msg, sig) reports.
func (m *VerifyMemo) Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if m == nil || len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return Verify(pub, msg, sig)
	}
	// Fixed-width fields, so the concatenation is unambiguous; msg goes in
	// as its digest to keep the buffer on the stack.
	var triple [ed25519.PublicKeySize + ed25519.SignatureSize + sha256.Size]byte
	copy(triple[:], pub)
	copy(triple[ed25519.PublicKeySize:], sig)
	msgSum := sha256.Sum256(msg)
	copy(triple[ed25519.PublicKeySize+ed25519.SignatureSize:], msgSum[:])
	key := sha256.Sum256(triple[:])
	if _, ok := m.verified[key]; ok {
		return true
	}
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	if m.verified == nil {
		m.verified = make(map[[sha256.Size]byte]struct{})
	} else if len(m.verified) >= memoCap {
		clear(m.verified)
	}
	m.verified[key] = struct{}{}
	return true
}
