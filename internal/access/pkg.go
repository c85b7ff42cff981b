package access

import (
	"encoding/binary"
	"fmt"
	"io"

	"vcloud/internal/cryptoprim"
)

// AuditEntry records one access to a data-policy package. Accessors are
// identified by an anonymous one-time token (e.g. a pseudonym serial or
// chain ID) — accountability without identity disclosure (§V.C).
type AuditEntry struct {
	AccessorToken [32]byte
	Action        Action
	At            int64 // virtual time
	Allowed       bool
	// Prev chains entries: Hash(prev-hash || entry fields).
	Hash [32]byte
}

// Package is a sticky data–policy package: ciphertext, the policy that
// governs it, per-clause wrapped keys, and the tamper-evident audit
// chain. It is self-contained — enforcement travels with the data as the
// paper requires ("a fundamentally new access control mechanism that can
// travel with data").
type Package struct {
	Resource string
	Policy   Policy
	// nonceSeed feeds the AEAD nonce; unique per package.
	NonceSeed uint64
	Cipher    []byte
	// Wraps maps clauseKey -> wrapped data key for every read clause.
	Wraps map[string][32]byte
	// Audit is the append-only access log.
	Audit []AuditEntry
	// OwnerSig binds resource, ciphertext and every rule's action, context
	// constraint and clauses under the owner's (pseudonym) key, so relays
	// can neither swap policies nor relax when one applies.
	OwnerSig []byte
	OwnerPub []byte
}

// Seal builds a package: data encrypted under a fresh key, the key
// wrapped for every clause of every Read rule, the whole signed by the
// owner's pseudonym key. lookup supplies current-epoch attribute keys
// (authority side).
func Seal(resource string, data []byte, policy Policy, nonceSeed uint64, owner cryptoprim.KeyPair, lookup func(AttributeID) (AttrKey, bool), rand io.Reader) (*Package, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if policy.Resource != resource {
		return nil, fmt.Errorf("access: policy resource %q != package resource %q", policy.Resource, resource)
	}
	var dataKey [32]byte
	if _, err := io.ReadFull(rand, dataKey[:]); err != nil {
		return nil, fmt.Errorf("access: generating data key: %w", err)
	}
	cipherText, err := sealAESGCM(dataKey, nonceSeed, data)
	if err != nil {
		return nil, err
	}
	wraps := make(map[string][32]byte)
	for _, rule := range policy.Rules {
		if rule.Action != Read {
			continue
		}
		for _, clause := range rule.AnyOf {
			kek, ok := encryptorKEK(clause, lookup)
			if !ok {
				return nil, fmt.Errorf("access: cannot derive key for clause %v", clause)
			}
			wraps[clauseKey(clause)] = wrapKey(kek, dataKey)
		}
	}
	if len(wraps) == 0 {
		return nil, fmt.Errorf("access: policy %q grants no read clauses", resource)
	}
	p := &Package{
		Resource:  resource,
		Policy:    policy,
		NonceSeed: nonceSeed,
		Cipher:    cipherText,
		Wraps:     wraps,
		OwnerPub:  owner.Public,
	}
	p.OwnerSig = owner.Sign(p.signedBytes())
	return p, nil
}

// signedBytes is the encoding the owner signs. Every variable-length field
// carries its length and every list its count, so no two packages encode
// alike: bytes cannot slide between the resource and the ciphertext, nor a
// rule fold into another rule's clauses. The walk runs twice, once to size
// the buffer and once to fill it.
func (p *Package) signedBytes() []byte {
	var e sigEncoder
	p.walkSigned(&e)
	e.buf = make([]byte, 0, e.size)
	p.walkSigned(&e)
	return e.buf
}

func (p *Package) walkSigned(e *sigEncoder) {
	putField(e, p.Resource)
	putField(e, p.Cipher)
	e.putCount(len(p.Policy.Rules))
	for i := range p.Policy.Rules {
		r := &p.Policy.Rules[i]
		putField(e, r.Action)
		e.putContext(r.Context)
		e.putCount(len(r.AnyOf))
		for _, c := range r.AnyOf {
			e.putCount(len(c))
			for _, a := range c {
				putField(e, a)
			}
		}
	}
}

// sigEncoder only counts bytes while buf is nil, and appends to buf after.
type sigEncoder struct {
	size int
	buf  []byte
}

func (e *sigEncoder) putCount(n int) {
	if e.buf == nil {
		e.size += 4
		return
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
}

func putField[T ~string | ~[]byte](e *sigEncoder, v T) {
	e.putCount(len(v))
	if e.buf == nil {
		e.size += len(v)
		return
	}
	e.buf = append(e.buf, v...)
}

func (e *sigEncoder) putContext(r ContextRule) {
	if e.buf == nil {
		var scratch [64]byte
		e.size += len(r.appendSigned(scratch[:0]))
		return
	}
	e.buf = r.appendSigned(e.buf)
}

// verify is VerifyIntegrity through the relying party's memo (nil: none).
func (p *Package) verify(memo *cryptoprim.VerifyMemo) error {
	if !memo.Verify(p.OwnerPub, p.signedBytes(), p.OwnerSig) {
		return fmt.Errorf("access: package integrity check failed (policy or data tampered)")
	}
	return nil
}

// Open attempts a Read access: the policy is evaluated against the
// subject's attributes and context; on success the matched clause's KEK
// unwraps the data key and the plaintext is returned. Every attempt —
// allowed or denied — appends a hash-chained audit entry. The returned
// Decision carries the evaluation work counters.
func (p *Package) Open(ring *Keyring, ctx Context, accessorToken [32]byte) ([]byte, Decision, error) {
	if err := p.verify(&ring.opened); err != nil {
		return nil, Decision{}, err
	}
	d := Evaluate(&p.Policy, ring.Attrs(), Read, ctx)
	p.appendAudit(accessorToken, Read, ctx.Now, d.Allowed)
	if !d.Allowed {
		return nil, d, fmt.Errorf("access: denied by policy %q", p.Resource)
	}
	wrapped, ok := p.Wraps[clauseKey(d.MatchedClause)]
	if !ok {
		return nil, d, fmt.Errorf("access: no wrapped key for matched clause (package sealed before clause added)")
	}
	kek, ok := ring.kek(d.MatchedClause)
	if !ok {
		return nil, d, fmt.Errorf("access: keyring missing attribute keys for matched clause")
	}
	dataKey := unwrapKey(kek, wrapped)
	plain, err := openAESGCM(dataKey, p.NonceSeed, p.Cipher)
	if err != nil {
		// Wrong-epoch keys: policy satisfied nominally but the key no
		// longer opens — attribute revocation in action.
		return nil, d, fmt.Errorf("access: attribute keys stale or revoked: %w", err)
	}
	return plain, d, nil
}

func (p *Package) appendAudit(token [32]byte, action Action, now int64, allowed bool) {
	var prev [32]byte
	if n := len(p.Audit); n > 0 {
		prev = p.Audit[n-1].Hash
	}
	e := AuditEntry{AccessorToken: token, Action: action, At: now, Allowed: allowed}
	e.Hash = auditHash(prev, e)
	p.Audit = append(p.Audit, e)
}

func auditHash(prev [32]byte, e AuditEntry) [32]byte {
	al := byte(0)
	if e.Allowed {
		al = 1
	}
	return cryptoprim.Digest(
		prev[:],
		e.AccessorToken[:],
		[]byte(e.Action),
		[]byte{al},
		[]byte(fmt.Sprintf("%d", e.At)),
	)
}

// VerifyAudit checks the audit chain's integrity, returning the index of
// the first tampered entry or -1 when intact.
func (p *Package) VerifyAudit() int {
	var prev [32]byte
	for i, e := range p.Audit {
		if auditHash(prev, e) != e.Hash {
			return i
		}
		prev = e.Hash
	}
	return -1
}
