package cryptoprim

import (
	"fmt"
	"io"
	"time"
)

// PseudonymPool holds a vehicle's batch of pre-issued pseudonym
// certificates with their signing keys (§IV.B.1: "a huge pool of
// pre-assigned certificates to be used for different rounds of
// communication"). The pool rotates: each Rotate advances to the next
// pseudonym, bounding how long an eavesdropper can link transmissions.
type PseudonymPool struct {
	entries []PseudonymEntry
	current int
	used    int
}

// PseudonymEntry is one pseudonym certificate plus its key pair.
type PseudonymEntry struct {
	Cert Certificate
	Key  KeyPair
}

// IssuePseudonyms has the CA mint n pseudonym certificates with random
// subjects. The caller (the TA in internal/pki) records the
// pseudonym→vehicle mapping for conditional traceability.
func IssuePseudonyms(ca *CA, n int, notAfter time.Duration, rand io.Reader) (*PseudonymPool, []Serial, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("cryptoprim: pool size must be >= 1, got %d", n)
	}
	pool := &PseudonymPool{entries: make([]PseudonymEntry, 0, n)}
	serials := make([]Serial, 0, n)
	for i := 0; i < n; i++ {
		key, err := GenerateKey(rand)
		if err != nil {
			return nil, nil, err
		}
		subject := make([]byte, 16)
		if _, err := io.ReadFull(rand, subject); err != nil {
			return nil, nil, fmt.Errorf("cryptoprim: generating pseudonym subject: %w", err)
		}
		cert, err := ca.Issue(subject, key.Public, notAfter)
		if err != nil {
			return nil, nil, err
		}
		pool.entries = append(pool.entries, PseudonymEntry{Cert: cert, Key: key})
		serials = append(serials, cert.SerialOf())
	}
	return pool, serials, nil
}

// Current returns the active pseudonym.
func (p *PseudonymPool) Current() *PseudonymEntry {
	return &p.entries[p.current]
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
