package cryptoprim

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"io"
	"time"
)

// Serial uniquely identifies a certificate for revocation purposes.
type Serial [32]byte

// Certificate binds a subject name to a public key, signed by an issuer.
// Subjects are opaque: a real vehicle identity for enrollment certs, a
// random pseudonym for pseudonym certs.
type Certificate struct {
	Subject   []byte
	PubKey    ed25519.PublicKey
	Issuer    []byte
	NotAfter  time.Duration // virtual expiry (sim.Time)
	Signature []byte
}

// WireSize is the approximate on-air size in bytes of an encoded
// certificate (matches typical explicit-certificate sizes in V2X).
const CertWireSize = 180

// tbs returns the to-be-signed encoding of the certificate.
func (c *Certificate) tbs() []byte {
	var buf bytes.Buffer
	buf.Write(c.Subject)
	buf.WriteByte(0)
	buf.Write(c.PubKey)
	buf.WriteByte(0)
	buf.Write(c.Issuer)
	buf.Write(uint64Bytes(uint64(c.NotAfter)))
	return buf.Bytes()
}

// SerialOf returns the certificate's revocation serial (hash of the
// signed portion).
func (c *Certificate) SerialOf() Serial {
	return Serial(Digest(c.tbs()))
}

// CA is a certificate authority: the trusted-authority root or a regional
// authority in the PKI hierarchy.
type CA struct {
	name string
	key  KeyPair
}

// NewCA creates an authority with a fresh key from rand.
func NewCA(name string, rand io.Reader) (*CA, error) {
	if name == "" {
		return nil, fmt.Errorf("cryptoprim: CA name must not be empty")
	}
	key, err := GenerateKey(rand)
	if err != nil {
		return nil, err
	}
	return &CA{name: name, key: key}, nil
}

// PublicKey returns the authority's verification key, which relying
// parties pin.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.key.Public }

// Issue signs a certificate for subject/pub valid until notAfter.
func (ca *CA) Issue(subject []byte, pub ed25519.PublicKey, notAfter time.Duration) (Certificate, error) {
	if len(subject) == 0 {
		return Certificate{}, fmt.Errorf("cryptoprim: certificate subject must not be empty")
	}
	if len(pub) != ed25519.PublicKeySize {
		return Certificate{}, fmt.Errorf("cryptoprim: bad public key length %d", len(pub))
	}
	c := Certificate{
		Subject:  append([]byte(nil), subject...),
		PubKey:   append(ed25519.PublicKey(nil), pub...),
		Issuer:   []byte(ca.name),
		NotAfter: notAfter,
	}
	c.Signature = ca.key.Sign(c.tbs())
	return c, nil
}

// CheckCert is the package-level CheckCert for a relying party that meets
// the same certificates again: expiry is tested on every call, the issuer
// signature through the memo.
func (m *VerifyMemo) CheckCert(c *Certificate, issuerPub ed25519.PublicKey, now time.Duration) error {
	if c == nil {
		return fmt.Errorf("cryptoprim: nil certificate")
	}
	if now > c.NotAfter {
		return fmt.Errorf("cryptoprim: certificate expired at %v (now %v)", c.NotAfter, now)
	}
	if !m.Verify(issuerPub, c.tbs(), c.Signature) {
		return fmt.Errorf("cryptoprim: certificate signature invalid")
	}
	return nil
}
