package access

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"vcloud/internal/cryptoprim"
)

// Authority issues attribute keys under its own master secret — one of
// the multiple authorities of the multi-authority CP-ABE design [24]
// (no single authority can decrypt everything or deanonymize everyone).
//
// Revocation is epoch-based: revoking an attribute bumps its epoch, so
// previously issued keys stop opening packages encrypted afterwards —
// the attribute-revocation mechanism §IV.C highlights.
type Authority struct {
	master []byte
	epochs map[AttributeID]uint64
}

// AttrKey is a subject's key for one attribute at one epoch.
type AttrKey struct {
	Attr   AttributeID
	Epoch  uint64
	Secret [32]byte
}

// NewAuthority creates an attribute authority with a master secret drawn
// from rand.
func NewAuthority(name string, rand io.Reader) (*Authority, error) {
	if name == "" {
		return nil, fmt.Errorf("access: authority name must not be empty")
	}
	master := make([]byte, 32)
	if _, err := io.ReadFull(rand, master); err != nil {
		return nil, fmt.Errorf("access: generating master secret: %w", err)
	}
	return &Authority{master: master, epochs: make(map[AttributeID]uint64)}, nil
}

// secretAt derives the attribute secret at a given epoch.
func (a *Authority) secretAt(attr AttributeID, epoch uint64) [32]byte {
	mac := hmac.New(sha256.New, a.master)
	mac.Write([]byte(attr))
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], epoch)
	mac.Write(e[:])
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Grant issues the current-epoch key for attr.
func (a *Authority) Grant(attr AttributeID) AttrKey {
	ep := a.epochs[attr]
	return AttrKey{Attr: attr, Epoch: ep, Secret: a.secretAt(attr, ep)}
}

// Revoke bumps the attribute's epoch: keys issued before no longer open
// packages sealed afterwards.
func (a *Authority) Revoke(attr AttributeID) {
	a.epochs[attr]++
}

// Keyring is a subject's attribute-key collection, possibly spanning
// multiple authorities.
type Keyring struct {
	keys map[AttributeID]AttrKey
	// opened remembers the packages whose owner signature this subject
	// has verified over exactly the bytes it is about to decrypt.
	opened cryptoprim.VerifyMemo
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring { return &Keyring{keys: make(map[AttributeID]AttrKey)} }

// Add stores a key (replacing an older epoch).
func (k *Keyring) Add(key AttrKey) { k.keys[key.Attr] = key }

// Attrs returns the attribute set view for policy evaluation.
func (k *Keyring) Attrs() AttrSet {
	out := make(AttrSet, len(k.keys))
	for id, key := range k.keys {
		out[id] = key.Epoch
	}
	return out
}

// kek derives the clause key-encryption-key from the subject's secrets
// for every attribute in the clause (sorted for canonical order).
// Returns false when any attribute key is missing.
func (k *Keyring) kek(clause Clause) ([32]byte, bool) {
	sorted := append(Clause(nil), clause...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := sha256.New()
	for _, attr := range sorted {
		key, ok := k.keys[attr]
		if !ok {
			return [32]byte{}, false
		}
		h.Write([]byte(key.Attr))
		var e [8]byte
		binary.BigEndian.PutUint64(e[:], key.Epoch)
		h.Write(e[:])
		h.Write(key.Secret[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, true
}

// encryptorKEK derives the same clause KEK from authority-side secrets
// (the encryptor queries the authorities' current epochs; in real
// CP-ABE this is public-parameter math).
func encryptorKEK(clause Clause, lookup func(AttributeID) (AttrKey, bool)) ([32]byte, bool) {
	ring := NewKeyring()
	for _, attr := range clause {
		key, ok := lookup(attr)
		if !ok {
			return [32]byte{}, false
		}
		ring.Add(key)
	}
	return ring.kek(clause)
}

// sealAESGCM encrypts plaintext under key with a deterministic nonce
// derived from nonceSeed (unique per package in our usage).
func sealAESGCM(key [32]byte, nonceSeed uint64, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("access: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("access: gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	binary.BigEndian.PutUint64(nonce, nonceSeed)
	return gcm.Seal(nil, nonce, plaintext, nil), nil
}

func openAESGCM(key [32]byte, nonceSeed uint64, ciphertext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("access: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("access: gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	binary.BigEndian.PutUint64(nonce, nonceSeed)
	out, err := gcm.Open(nil, nonce, ciphertext, nil)
	if err != nil {
		return nil, fmt.Errorf("access: decrypt: %w", err)
	}
	return out, nil
}

// wrapKey encrypts the data key under a clause KEK.
func wrapKey(kek [32]byte, dataKey [32]byte) [32]byte {
	stream := cryptoprim.Digest(kek[:], []byte("wrap"))
	var out [32]byte
	for i := range out {
		out[i] = dataKey[i] ^ stream[i]
	}
	return out
}

// unwrapKey reverses wrapKey (XOR is symmetric).
func unwrapKey(kek [32]byte, wrapped [32]byte) [32]byte {
	return wrapKey(kek, wrapped)
}
