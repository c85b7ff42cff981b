package cryptoprim

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"runtime"
	"time"

	"vcloud/internal/fanout"
)

// PseudonymPool holds a vehicle's batch of pre-assigned pseudonym
// certificates with their signing keys (§IV.B.1: "a huge pool of
// pre-assigned certificates to be used for different rounds of
// communication"). The pool rotates: each Rotate advances to the next
// pseudonym, bounding how long an eavesdropper can link transmissions.
//
// The pool keeps each pseudonym's draw and the CA that certifies it, and
// issues a pseudonym the first time Current reads it. Deriving the key
// and signing the certificate are deterministic (ed25519), so the entry
// is the byte string issuing it up front would give; a pseudonym no run
// presents costs no key derivation and no signature.
type PseudonymPool struct {
	ca       *CA
	notAfter time.Duration
	draws    []KeyDraw
	entries  []PseudonymEntry // entries[i] is issued once its Signature is set
	current  int
	used     int
}

// PseudonymEntry is one pseudonym certificate plus its key pair. A
// vehicle's long-term certificate comes in the same shape, from a pool
// of one.
type PseudonymEntry struct {
	Cert Certificate
	Key  KeyPair
}

// KeyDraw is the randomness one certificate consumes: the seed of its key
// pair and the subject it is issued to. Drawing is the only step that
// reads a reader; deriving the key and certifying it is a pure function
// of these bytes and the CA key, done when the certificate is first
// presented (PseudonymPool.Current) or its serial is needed (CA.Serials).
type KeyDraw struct {
	seed    [ed25519.SeedSize]byte
	subject []byte
}

// DrawKey reads the seed of a key pair certified to subject: the bytes
// GenerateKey would read. It rejects an empty subject before reading, so
// certifying the draw later cannot fail.
func DrawKey(subject []byte, rand io.Reader) (KeyDraw, error) {
	if len(subject) == 0 {
		return KeyDraw{}, fmt.Errorf("cryptoprim: certificate subject must not be empty")
	}
	d := KeyDraw{subject: subject}
	if _, err := io.ReadFull(rand, d.seed[:]); err != nil {
		return KeyDraw{}, fmt.Errorf("cryptoprim: generating key: %w", err)
	}
	return d, nil
}

// DrawPseudonym reads a pseudonym's key seed and then its random 16-byte
// subject.
func DrawPseudonym(rand io.Reader) (KeyDraw, error) {
	d, err := DrawKey(make([]byte, 16), rand)
	if err != nil {
		return KeyDraw{}, err
	}
	if _, err := io.ReadFull(rand, d.subject); err != nil {
		return KeyDraw{}, fmt.Errorf("cryptoprim: generating pseudonym subject: %w", err)
	}
	return d, nil
}

// key derives the draw's key pair from its seed.
func (d *KeyDraw) key() KeyPair {
	priv := ed25519.NewKeyFromSeed(d.seed[:])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Serials returns the revocation serial of every draw's certificate, in
// draw order, on up to GOMAXPROCS goroutines. A serial hashes the
// to-be-signed bytes, so this derives each public key but signs nothing;
// serial i is a pure function of draw i, the same at any core count.
func (ca *CA) Serials(draws []KeyDraw, notAfter time.Duration) []Serial {
	out := make([]Serial, len(draws))
	issuer := []byte(ca.name)
	// No unit fails, so Each has no error to return.
	_ = fanout.Each(runtime.GOMAXPROCS(0), len(draws), func(i int) error {
		c := Certificate{
			Subject:  draws[i].subject,
			PubKey:   draws[i].key().Public,
			Issuer:   issuer,
			NotAfter: notAfter,
		}
		out[i] = c.SerialOf()
		return nil
	})
	return out
}

// NewPseudonymPool makes a pool over draws that ca certifies, valid until
// notAfter, on first presentation. The pool reads draws and never writes
// them, so the caller (the TA in internal/pki) may keep them as its
// escrow for revocation and conditional traceability.
func NewPseudonymPool(ca *CA, draws []KeyDraw, notAfter time.Duration) (*PseudonymPool, error) {
	if len(draws) == 0 {
		return nil, fmt.Errorf("cryptoprim: pool size must be >= 1, got 0")
	}
	return &PseudonymPool{
		ca:       ca,
		notAfter: notAfter,
		draws:    draws,
		entries:  make([]PseudonymEntry, len(draws)),
	}, nil
}

// Current returns the active pseudonym, issuing it on its first read.
func (p *PseudonymPool) Current() *PseudonymEntry {
	e := &p.entries[p.current]
	if e.Cert.Signature == nil {
		d := &p.draws[p.current]
		e.Key = d.key()
		var err error
		// The draw's subject is non-empty (DrawKey) and the key is a
		// derived ed25519 key, so Issue has nothing to reject.
		if e.Cert, err = p.ca.Issue(d.subject, e.Key.Public, p.notAfter); err != nil {
			panic(err)
		}
	}
	return e
}

// Rotate advances to the next pseudonym, wrapping around when the pool is
// exhausted (a real system would refill from the TA; the wrap models
// reuse, which costs linkability — tracked by UsedCount vs Size).
func (p *PseudonymPool) Rotate() {
	p.current = (p.current + 1) % len(p.entries)
	p.used++
}

// IDChain is the hash-chain one-time identity of randomized
// authentication schemes ([14], [16]): id_i = H(id_{i-1}), revealed in
// reverse so each identity is used once and outsiders cannot link
// successive ones without the seed.
type IDChain struct {
	seed [32]byte
	next uint64
}

// NewIDChain creates a chain from 32 bytes of randomness.
func NewIDChain(rand io.Reader) (*IDChain, error) {
	var seed [32]byte
	if _, err := io.ReadFull(rand, seed[:]); err != nil {
		return nil, fmt.Errorf("cryptoprim: generating id chain seed: %w", err)
	}
	return &IDChain{seed: seed}, nil
}

// Next returns a fresh one-time identity.
func (c *IDChain) Next() [32]byte {
	id := Digest(c.seed[:], uint64Bytes(c.next))
	c.next++
	return id
}

// ChainIDAt derives the k-th one-time identity of a chain from its seed
// (used by the TA to publish hybrid revocation trapdoor tags).
func ChainIDAt(seed [32]byte, k uint64) [32]byte {
	return Digest(seed[:], uint64Bytes(k))
}

// Seed exposes the chain seed for escrow at the TA.
func (c *IDChain) Seed() [32]byte { return c.seed }
