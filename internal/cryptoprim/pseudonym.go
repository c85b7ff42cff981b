package cryptoprim

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"runtime"
	"time"

	"vcloud/internal/fanout"
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

// PseudonymEntry is one pseudonym certificate plus its key pair. CA.IssueAll
// returns a vehicle's long-term certificate in the same shape.
type PseudonymEntry struct {
	Cert Certificate
	Key  KeyPair
}

// KeyDraw is the randomness one certificate consumes: the seed of its key
// pair and the subject it is issued to. Drawing is the only step that
// reads a reader; deriving the key and certifying it (CA.IssueAll) is a
// pure function of these bytes and the CA key.
type KeyDraw struct {
	seed    [ed25519.SeedSize]byte
	subject []byte
}

// DrawKey reads the seed of a key pair certified to subject: the bytes
// GenerateKey would read.
func DrawKey(subject []byte, rand io.Reader) (KeyDraw, error) {
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

// IssueAll derives every draw's key pair and has the CA certify it, on up
// to GOMAXPROCS goroutines. Entry i belongs to draw i, and each entry is a
// pure function of its draw, so the result is the same at any core count.
func (ca *CA) IssueAll(draws []KeyDraw, notAfter time.Duration) ([]PseudonymEntry, error) {
	out := make([]PseudonymEntry, len(draws))
	err := fanout.Each(runtime.GOMAXPROCS(0), len(draws), func(i int) error {
		priv := ed25519.NewKeyFromSeed(draws[i].seed[:])
		key := KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
		cert, err := ca.Issue(draws[i].subject, key.Public, notAfter)
		out[i] = PseudonymEntry{Cert: cert, Key: key}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NewPseudonymPool makes a pool of issued pseudonyms and lists their
// serials, in pool order. The caller (the TA in internal/pki) records the
// pseudonym→vehicle mapping for conditional traceability.
func NewPseudonymPool(entries []PseudonymEntry) (*PseudonymPool, []Serial, error) {
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("cryptoprim: pool size must be >= 1, got 0")
	}
	serials := make([]Serial, len(entries))
	for i := range entries {
		serials[i] = entries[i].Cert.SerialOf()
	}
	return &PseudonymPool{entries: entries}, serials, nil
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
