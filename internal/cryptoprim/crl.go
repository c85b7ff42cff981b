package cryptoprim

import (
	"encoding/binary"
)

// CRL is a certificate revocation list. Two lookup paths exist so
// experiment E5 can ablate them: a linear scan (what a naive OBU does
// over a downloaded list) and a bloom-filter pre-check that rejects
// non-revoked serials in O(1) with a configurable false-positive rate
// (false positives fall through to the exact scan).
type CRL struct {
	serials []Serial
	index   map[Serial]struct{}
	bloom   []uint64 // bit set
	bloomK  int
}

// NewCRL returns an empty revocation list sized for the expected number
// of entries: the bloom filter gets 10 bits per *expected* entry and never
// grows, so its false-positive rate (and with it the share of lookups that
// fall through to the exact index) climbs once Len passes expected. The TA
// passes 4096.
func NewCRL(expected int) *CRL {
	if expected < 64 {
		expected = 64
	}
	words := (expected*10 + 63) / 64
	return &CRL{
		index:  make(map[Serial]struct{}, expected),
		bloom:  make([]uint64, words),
		bloomK: 4,
	}
}

// Add revokes a serial. Adding a duplicate is a no-op.
func (c *CRL) Add(s Serial) {
	if _, ok := c.index[s]; ok {
		return
	}
	c.index[s] = struct{}{}
	c.serials = append(c.serials, s)
	for i := 0; i < c.bloomK; i++ {
		c.setBit(c.bloomPos(s, i))
	}
}

// Len returns the number of revoked serials.
func (c *CRL) Len() int { return len(c.serials) }

func (c *CRL) bloomPos(s Serial, k int) uint64 {
	// Derive k positions from different 8-byte windows of the serial,
	// mixed with k.
	off := (k * 7) % (len(s) - 8)
	v := binary.BigEndian.Uint64(s[off:off+8]) ^ uint64(k)*0x9e3779b97f4a7c15
	return v % uint64(len(c.bloom)*64)
}

func (c *CRL) setBit(pos uint64)      { c.bloom[pos/64] |= 1 << (pos % 64) }
func (c *CRL) getBit(pos uint64) bool { return c.bloom[pos/64]&(1<<(pos%64)) != 0 }

// ContainsLinear scans the full list, returning whether s is revoked and
// the number of entries examined (the E5 cost driver).
func (c *CRL) ContainsLinear(s Serial) (revoked bool, scanned int) {
	for i, e := range c.serials {
		if e == s {
			return true, i + 1
		}
	}
	return false, len(c.serials)
}

// ContainsBloom checks the bloom filter first and falls back to the exact
// index only on a positive. scanned reports the equivalent exact-entry
// work (0 for a bloom miss, 1 for an index probe).
func (c *CRL) ContainsBloom(s Serial) (revoked bool, scanned int) {
	for i := 0; i < c.bloomK; i++ {
		if !c.getBit(c.bloomPos(s, i)) {
			return false, 0
		}
	}
	_, ok := c.index[s]
	return ok, 1
}

// Serials returns a copy of the revoked serials (for CRL distribution).
func (c *CRL) Serials() []Serial {
	out := make([]Serial, len(c.serials))
	copy(out, c.serials)
	return out
}
