package cryptoprim

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// GroupManager realizes the group-signature scheme of the group-based
// authentication protocols (§IV.B, Fig. 5): members sign anonymously
// toward outsiders, any verifier checks against a single group public
// key, and the manager — and only the manager — can open a signature to
// the member identity ("conditional privacy": the exact weakness Fig. 5
// attributes to group-based protocols).
//
// Construction: the manager distributes a shared group signing key to
// enrolled members (so one ed25519 verify suffices), plus a 32-byte
// per-member secret. A signature carries an opening tag
// HMAC-SHA256(memberSecret, nonce) that is pseudorandom to outsiders but
// lets the manager identify the member by recomputing it for each row of
// its member roll until one matches. Revoked members' tags are rejected
// via the manager-distributed revocation tokens, mirroring
// verifier-local revocation in real schemes.
//
// The roll is self-organising: Open moves the row it matched to the
// front, because the signers a verifier meets are a small recurring
// subset of everyone enrolled and a trial costs four SHA-256 compressions
// (move-to-front stays within twice the best fixed order whatever the
// pattern). The order never changes an answer — at most one secret
// matches a tag, and a foreign tag is still tried against every row — but
// it does mean Open (and so CheckNotRevoked and pki.TA.TraceGroupSig)
// writes: a GroupManager is single-goroutine, like the rest of the TA.
type GroupManager struct {
	groupID  string
	groupKey KeyPair
	roll     []member // one row per enrolled member, in Open's scan order
	revoked  map[string]struct{}
}

type member struct {
	id     string
	secret [32]byte
}

// GroupCred is a member's signing credential.
type GroupCred struct {
	GroupID  string
	MemberID string
	secret   [32]byte
	groupKey KeyPair
}

// GroupSig is a group signature over a message.
type GroupSig struct {
	GroupID string
	Nonce   uint64
	Tag     [32]byte // opening tag: HMAC(memberSecret, nonce)
	Sig     []byte   // ed25519 over groupSigned(msg, groupID, nonce, tag)
}

// GroupSigWireSize approximates the on-air bytes of a group signature
// (real pairing-based group signatures run 200-400 bytes).
const GroupSigWireSize = 112

// NewGroupManager creates a manager for groupID with fresh keys.
func NewGroupManager(groupID string, rand io.Reader) (*GroupManager, error) {
	if groupID == "" {
		return nil, fmt.Errorf("cryptoprim: group id must not be empty")
	}
	key, err := GenerateKey(rand)
	if err != nil {
		return nil, err
	}
	return &GroupManager{
		groupID:  groupID,
		groupKey: key,
		revoked:  make(map[string]struct{}),
	}, nil
}

// PublicKey returns the group verification key.
func (gm *GroupManager) PublicKey() []byte { return gm.groupKey.Public }

// NumMembers returns the enrolled member count (the outsider anonymity
// set size).
func (gm *GroupManager) NumMembers() int { return len(gm.roll) }

// Enroll admits a member and returns its credential. Re-enrolling an
// existing member returns a fresh secret (key rotation): signatures under
// the old one no longer open.
func (gm *GroupManager) Enroll(memberID string, rand io.Reader) (GroupCred, error) {
	if memberID == "" {
		return GroupCred{}, fmt.Errorf("cryptoprim: member id must not be empty")
	}
	var secret [32]byte
	if _, err := io.ReadFull(rand, secret[:]); err != nil {
		return GroupCred{}, fmt.Errorf("cryptoprim: generating member secret: %w", err)
	}
	if i := slices.IndexFunc(gm.roll, func(m member) bool { return m.id == memberID }); i >= 0 {
		gm.roll[i].secret = secret
	} else {
		gm.roll = append(gm.roll, member{memberID, secret})
	}
	delete(gm.revoked, memberID)
	return GroupCred{
		GroupID:  gm.groupID,
		MemberID: memberID,
		secret:   secret,
		groupKey: gm.groupKey,
	}, nil
}

// Revoke expels a member; its future signatures open to a revoked
// identity and Verify rejects them once the verifier holds the updated
// revocation state (modeled by asking the manager).
func (gm *GroupManager) Revoke(memberID string) {
	gm.revoked[memberID] = struct{}{}
}

// IsRevoked reports whether the member is revoked.
func (gm *GroupManager) IsRevoked(memberID string) bool {
	_, ok := gm.revoked[memberID]
	return ok
}

// Sign produces a group signature over msg with the given nonce. Nonces
// must not repeat per member (the caller uses a counter or timestamp);
// distinct nonces make tags unlinkable to outsiders.
func (c *GroupCred) Sign(msg []byte, nonce uint64) GroupSig {
	tag := openingTag(&c.secret, nonce)
	signed := groupSigned(msg, c.GroupID, nonce, &tag)
	return GroupSig{
		GroupID: c.GroupID,
		Nonce:   nonce,
		Tag:     tag,
		Sig:     c.groupKey.Sign(signed[:]),
	}
}

// VerifyGroupSig checks a group signature against the group public key.
// It does not identify the signer.
func VerifyGroupSig(groupPub []byte, msg []byte, sig GroupSig) bool {
	signed := groupSigned(msg, sig.GroupID, sig.Nonce, &sig.Tag)
	return Verify(groupPub, signed[:], sig.Sig)
}

// groupSigned is the digest the group key signs: msg and the group ID,
// each behind its length, then the fixed-width nonce and opening tag.
// Without the lengths a signature over (m, "TA-group") would also verify
// over (m‖"T", "A-group").
func groupSigned(msg []byte, groupID string, nonce uint64, tag *[32]byte) [32]byte {
	return Digest(uint64Bytes(uint64(len(msg))), msg,
		uint64Bytes(uint64(len(groupID))), []byte(groupID),
		uint64Bytes(nonce), tag[:])
}

// openingTag is HMAC-SHA256(secret, nonce) (RFC 2104) specialised to the
// 32-byte member secrets and 8-byte nonces, so it runs on the stack: Open
// computes it once per roll row tried.
func openingTag(secret *[32]byte, nonce uint64) [32]byte {
	var inner [sha256.BlockSize + 8]byte
	var outer [sha256.BlockSize + sha256.Size]byte
	for i := 0; i < sha256.BlockSize; i++ { // ipad and opad over the zero-padded key
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, k := range secret {
		inner[i] ^= k
		outer[i] ^= k
	}
	binary.BigEndian.PutUint64(inner[sha256.BlockSize:], nonce)
	sum := sha256.Sum256(inner[:])
	copy(outer[sha256.BlockSize:], sum[:])
	return sha256.Sum256(outer[:])
}

// Open identifies the member that produced sig, or "" when no enrolled
// member matches (forged or foreign signature). Only the manager can do
// this — the "conditional privacy" property.
func (gm *GroupManager) Open(sig GroupSig) string {
	for i := range gm.roll {
		tag := openingTag(&gm.roll[i].secret, sig.Nonce)
		if hmac.Equal(tag[:], sig.Tag[:]) {
			m := gm.roll[i]
			copy(gm.roll[1:i+1], gm.roll[:i])
			gm.roll[0] = m
			return m.id
		}
	}
	return ""
}

// CheckNotRevoked opens the signature and reports whether the signer is
// an enrolled, non-revoked member.
func (gm *GroupManager) CheckNotRevoked(sig GroupSig) bool {
	id := gm.Open(sig)
	if id == "" {
		return false
	}
	return !gm.IsRevoked(id)
}
