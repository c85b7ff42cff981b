// Package cryptoprim provides the cryptographic building blocks the
// vehicular-cloud security protocols are assembled from: ed25519 key
// pairs, certificates with a CA hierarchy, certificate revocation lists
// (linear and bloom-accelerated — an E5 ablation), pseudonym pools, a
// simulation-faithful group-signature construction, and hash-chain
// one-time identities.
//
// Substitution note (see DESIGN.md): the VANET literature uses
// bilinear-pairing group signatures and ECDSA-p256 certificates on
// tamper-proof hardware. This package preserves the *protocol structure*
// — who signs what, who can verify, who can trace, how revocation is
// checked and how its cost scales — using stdlib primitives. Absolute
// CPU costs are modeled separately as virtual time in internal/auth.
package cryptoprim

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// KeyPair is an ed25519 signing key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKey creates a key pair from the given randomness source. Pass a
// deterministic reader in simulations for reproducible runs.
func GenerateKey(rand io.Reader) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return KeyPair{}, fmt.Errorf("cryptoprim: generating key: %w", err)
	}
	return KeyPair{Public: pub, private: priv}, nil
}

// Sign signs msg. It panics if the key pair has no private half; use
// CanSign to check first when the key may be public-only.
func (k KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify reports whether sig is a valid signature of msg under pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}

// Digest returns the SHA-256 hash of the concatenated byte slices.
func Digest(parts ...[]byte) [32]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// uint64Bytes encodes v big-endian.
func uint64Bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}
