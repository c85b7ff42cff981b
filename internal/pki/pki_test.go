package pki

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vcloud/internal/cryptoprim"
)

func newTA(t testing.TB, cfg Config) *TA {
	t.Helper()
	ta, err := New("TA", rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ta
}

func TestNewValidation(t *testing.T) {
	if _, err := New("TA", nil, Config{}); err == nil {
		t.Error("nil rand should error")
	}
	if _, err := New("", rand.New(rand.NewSource(1)), Config{}); err == nil {
		t.Error("empty name should error (CA rejects)")
	}
}

func TestEnrollProducesWorkingCredentials(t *testing.T) {
	ta := newTA(t, Config{PoolSize: 5})
	e, err := ta.Enroll("veh-1")
	if err != nil {
		t.Fatal(err)
	}
	if ta.NumEnrolled() != 1 {
		t.Errorf("NumEnrolled = %d", ta.NumEnrolled())
	}
	// Long-term cert verifies under the root.
	if err := (*cryptoprim.VerifyMemo)(nil).CheckCert(&e.LongTerm().Cert, ta.RootKey(), 0); err != nil {
		t.Errorf("long-term cert invalid: %v", err)
	}
	// Pseudonyms verify and the TA can trace them.
	p := e.Pseudonyms.Current()
	if err := (*cryptoprim.VerifyMemo)(nil).CheckCert(&p.Cert, ta.RootKey(), 0); err != nil {
		t.Errorf("pseudonym cert invalid: %v", err)
	}
	owner, ok := ta.TracePseudonym(p.Cert.SerialOf())
	if !ok || owner != "veh-1" {
		t.Errorf("TracePseudonym = %q, %v", owner, ok)
	}
	// Group credential signs and the TA traces it.
	sig := e.Group.Sign([]byte("m"), 1)
	if !cryptoprim.VerifyGroupSig(ta.GroupKey(), []byte("m"), sig) {
		t.Error("group signature invalid")
	}
	who, ok := ta.TraceGroupSig(sig)
	if !ok || who != "veh-1" {
		t.Errorf("TraceGroupSig = %q, %v", who, ok)
	}
	// Chain ids trace.
	id0 := e.Chain.Next()
	veh, ok := ta.TraceChainID(id0, 4)
	if !ok || veh != "veh-1" {
		t.Errorf("TraceChainID = %q, %v", veh, ok)
	}
	if _, ok := ta.TraceChainID([32]byte{1, 2, 3}, 4); ok {
		t.Error("bogus chain id traced")
	}
}

func TestEnrollValidation(t *testing.T) {
	ta := newTA(t, Config{})
	if _, err := ta.Enroll(""); err == nil {
		t.Error("empty identity should error")
	}
	if _, err := ta.Enroll("veh-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ta.Enroll("veh-1"); err == nil {
		t.Error("double enrollment should error")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ta := newTA(t, Config{})
	e, err := ta.Enroll("v")
	if err != nil {
		t.Fatal(err)
	}
	// Revocation lists every pseudonym of the pool.
	if err := ta.RevokeVehicle("v"); err != nil {
		t.Fatal(err)
	}
	if n := ta.CRL().Len(); n != 20 {
		t.Errorf("default pool size = %d, want 20", n)
	}
	if lt := e.LongTerm(); lt.Cert.NotAfter != 24*time.Hour {
		t.Errorf("default lifetime = %v", lt.Cert.NotAfter)
	}
}

func TestRevocationPipeline(t *testing.T) {
	ta := newTA(t, Config{PoolSize: 7})
	e, err := ta.Enroll("veh-bad")
	if err != nil {
		t.Fatal(err)
	}
	if ta.IsRevoked("veh-bad") {
		t.Error("fresh vehicle reported revoked")
	}
	if err := ta.RevokeVehicle("veh-bad"); err != nil {
		t.Fatal(err)
	}
	if !ta.IsRevoked("veh-bad") {
		t.Error("IsRevoked false after revocation")
	}
	// CRL must now contain all 7 pseudonym serials — the pool-size
	// multiplication effect.
	if ta.CRL().Len() != 7 {
		t.Errorf("CRL len = %d, want 7", ta.CRL().Len())
	}
	for i := 0; i < 7; i++ {
		s := e.Pseudonyms.Current().Cert.SerialOf()
		if ok, _ := ta.CRL().ContainsLinear(s); !ok {
			t.Error("pseudonym serial missing from CRL")
		}
		e.Pseudonyms.Rotate()
	}
	// Group membership revoked too.
	sig := e.Group.Sign([]byte("m"), 2)
	if ta.GroupManager().CheckNotRevoked(sig) {
		t.Error("revoked vehicle passes group revocation check")
	}
	// Idempotent; unknown vehicle errors.
	if err := ta.RevokeVehicle("veh-bad"); err != nil {
		t.Errorf("double revoke should be a no-op, got %v", err)
	}
	if ta.CRL().Len() != 7 {
		t.Error("double revoke grew the CRL")
	}
	if err := ta.RevokeVehicle("ghost"); err == nil {
		t.Error("revoking unknown vehicle should error")
	}
}

func TestCRLGrowthScalesWithPoolSize(t *testing.T) {
	for _, pool := range []int{5, 20} {
		ta := newTA(t, Config{PoolSize: pool})
		for i := 0; i < 10; i++ {
			id := VehicleIdentity(string(rune('a' + i)))
			if _, err := ta.Enroll(id); err != nil {
				t.Fatal(err)
			}
			if err := ta.RevokeVehicle(id); err != nil {
				t.Fatal(err)
			}
		}
		if got := ta.CRL().Len(); got != 10*pool {
			t.Errorf("pool %d: CRL len = %d, want %d", pool, got, 10*pool)
		}
	}
}

func TestRevocationVersionAndHybridTags(t *testing.T) {
	ta := newTA(t, Config{PoolSize: 3})
	if ta.RevocationVersion() != 0 {
		t.Error("fresh TA version should be 0")
	}
	e, err := ta.Enroll("veh-a")
	if err != nil {
		t.Fatal(err)
	}
	id0 := e.Chain.Next()
	// Pre-revocation: no tags.
	if tags := ta.HybridRevocationTags(8); len(tags) != 0 {
		t.Errorf("tags before revocation = %d", len(tags))
	}
	if err := ta.RevokeVehicle("veh-a"); err != nil {
		t.Fatal(err)
	}
	if ta.RevocationVersion() != 1 {
		t.Errorf("version = %d, want 1", ta.RevocationVersion())
	}
	tags := ta.HybridRevocationTags(8)
	if len(tags) != 9 { // indices 0..8
		t.Errorf("tags = %d, want 9", len(tags))
	}
	if _, ok := tags[id0]; !ok {
		t.Error("revoked vehicle's chain id missing from tags")
	}
	// Idempotent revoke does not bump the version.
	if err := ta.RevokeVehicle("veh-a"); err != nil {
		t.Fatal(err)
	}
	if ta.RevocationVersion() != 1 {
		t.Error("idempotent revoke bumped version")
	}
}

func TestTraceGroupSigUnknown(t *testing.T) {
	ta := newTA(t, Config{})
	other, err := New("other", rand.New(rand.NewSource(9)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := other.Enroll("foreign")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ta.TraceGroupSig(e.Group.Sign([]byte("m"), 1)); ok {
		t.Error("foreign signature traced")
	}
}

func TestTraceabilityPaths(t *testing.T) {
	ta := newTA(t, Config{PoolSize: 2})
	var enrs []*Enrollment
	for _, id := range []VehicleIdentity{"veh-0", "veh-1"} {
		e, err := ta.Enroll(id)
		if err != nil {
			t.Fatal(err)
		}
		enrs = append(enrs, e)
	}
	// TA traces a pseudonym to its owner.
	owner, ok := ta.TracePseudonym(enrs[0].Pseudonyms.Current().Cert.SerialOf())
	if !ok || owner != "veh-0" {
		t.Errorf("TracePseudonym = %q, %v", owner, ok)
	}
	// TA traces group signatures.
	who, ok := ta.TraceGroupSig(enrs[1].Group.Sign([]byte("m"), 42))
	if !ok || who != "veh-1" {
		t.Errorf("TraceGroupSig = %q, %v", who, ok)
	}
}

// enrollmentDigest hashes what an enrolment hands out and what the TA
// escrows for it, through the exported API: every certificate field, a
// signature by every key (ed25519 signing is deterministic, so equal
// signatures mean equal keys), the escrowed serials, a group signature
// (its tag is an HMAC under the member secret), the chain seed, and the
// bytes the reader yields next. It rotates the pseudonym pool once round.
func enrollmentDigest(ta *TA, e *Enrollment, poolSize int, next []byte) string {
	h := sha256.New()
	field := func(b []byte) {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(b))))
		h.Write(b)
	}
	msg := []byte("enrolment digest")
	pair := func(c *cryptoprim.Certificate, k cryptoprim.KeyPair) {
		for _, b := range [][]byte{c.Subject, c.PubKey, c.Issuer, c.Signature, k.Public, k.Sign(msg)} {
			field(b)
		}
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(c.NotAfter)))
	}
	lt := e.LongTerm()
	pair(&lt.Cert, lt.Key)
	for i := 0; i < poolSize; i++ {
		p := e.Pseudonyms.Current()
		pair(&p.Cert, p.Key)
		e.Pseudonyms.Rotate()
	}
	for _, s := range ta.ca.Serials(ta.draws[e.Identity][1:], certLifetime) {
		h.Write(s[:])
	}
	sig := e.Group.Sign(msg, 7)
	field([]byte(sig.GroupID))
	field([]byte(e.Group.MemberID))
	h.Write(sig.Tag[:])
	field(sig.Sig)
	seed := e.Chain.Seed()
	h.Write(seed[:])
	field(next)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestEnrollIdenticalAtAnyParallelism: the TA derives a revoked vehicle's
// serials on every core and issues each certificate on its first read,
// yet what an enrolment hands out, what the TA escrows, the CRL and where
// it leaves its reader are the same byte for byte at GOMAXPROCS 1 and 4 —
// and the same as eager serial issuance, whose digest (with group
// signatures over length-framed fields) is pinned.
func TestEnrollIdenticalAtAnyParallelism(t *testing.T) {
	ids := []VehicleIdentity{"veh-1", "veh-2", "veh-3"}
	type run struct {
		ta   *TA
		enrs []*Enrollment
		next []byte
	}
	enrollAll := func(procs int) run {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		r := rand.New(rand.NewSource(1))
		ta, err := New("TA", r, Config{})
		if err != nil {
			t.Fatal(err)
		}
		out := run{ta: ta, next: make([]byte, 64)}
		for _, id := range ids {
			e, err := ta.Enroll(id)
			if err != nil {
				t.Fatal(err)
			}
			out.enrs = append(out.enrs, e)
		}
		r.Read(out.next)
		if err := ta.RevokeVehicle(ids[2]); err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := enrollAll(1), enrollAll(4)
	for i, id := range ids {
		if !reflect.DeepEqual(one.enrs[i], four.enrs[i]) {
			t.Errorf("%s: enrolment differs between GOMAXPROCS 1 and 4", id)
		}
	}
	escrow := func(ta *TA) []any {
		return []any{ta.draws, ta.chainSeeds, ta.group, ta.crl}
	}
	if !reflect.DeepEqual(escrow(one.ta), escrow(four.ta)) {
		t.Error("TA escrow or CRL differs between GOMAXPROCS 1 and 4")
	}
	if !bytes.Equal(one.next, four.next) {
		t.Error("reader left at a different place")
	}
	const pinned = "e729643bb8eb046c35cd16b9441d489e87e1b1e720f1da6a1b91a7b2979cf039"
	if got := enrollmentDigest(one.ta, one.enrs[1], 20, one.next); got != pinned {
		t.Errorf("enrolment digest = %s, want %s", got, pinned)
	}
}
