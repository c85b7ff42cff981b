package cryptoprim

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// detRand returns a deterministic randomness source for tests.
func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// issuePseudonyms draws n pseudonyms from rand and has ca issue them.
func issuePseudonyms(tb testing.TB, ca *CA, n int, rand io.Reader) (*PseudonymPool, []Serial) {
	tb.Helper()
	draws := make([]KeyDraw, n)
	for i := range draws {
		var err error
		if draws[i], err = DrawPseudonym(rand); err != nil {
			tb.Fatal(err)
		}
	}
	entries, err := ca.IssueAll(draws, time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	pool, serials, err := NewPseudonymPool(entries)
	if err != nil {
		tb.Fatal(err)
	}
	return pool, serials
}

func TestSignVerifyRoundTrip(t *testing.T) {
	k, err := GenerateKey(detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if !k.CanSign() {
		t.Fatal("generated key cannot sign")
	}
	msg := []byte("hello v-cloud")
	sig := k.Sign(msg)
	if !Verify(k.Public, msg, sig) {
		t.Error("valid signature rejected")
	}
	if Verify(k.Public, []byte("tampered"), sig) {
		t.Error("tampered message accepted")
	}
	k2, _ := GenerateKey(detRand(2))
	if Verify(k2.Public, msg, sig) {
		t.Error("wrong key accepted")
	}
	if Verify(nil, msg, sig) {
		t.Error("nil key accepted")
	}
	if Verify(k.Public, msg, sig[:10]) {
		t.Error("truncated signature accepted")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	k, err := GenerateKey(detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		return Verify(k.Public, msg, k.Sign(msg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCAIssueAndCheck(t *testing.T) {
	ca, err := NewCA("TA-root", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if ca.Name() != "TA-root" {
		t.Error("name wrong")
	}
	veh, _ := GenerateKey(detRand(2))
	cert, err := ca.Issue([]byte("vehicle-42"), veh.Public, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCert(&cert, ca.PublicKey(), 0); err != nil {
		t.Errorf("valid cert rejected: %v", err)
	}
	// Expired.
	if err := CheckCert(&cert, ca.PublicKey(), 2*time.Hour); err == nil {
		t.Error("expired cert accepted")
	}
	// Wrong issuer key.
	other, _ := NewCA("evil", detRand(3))
	if err := CheckCert(&cert, other.PublicKey(), 0); err == nil {
		t.Error("cert accepted under wrong issuer key")
	}
	// Tampered subject.
	bad := cert
	bad.Subject = []byte("vehicle-43")
	if err := CheckCert(&bad, ca.PublicKey(), 0); err == nil {
		t.Error("tampered cert accepted")
	}
	if err := CheckCert(nil, ca.PublicKey(), 0); err == nil {
		t.Error("nil cert accepted")
	}
}

func TestCAValidation(t *testing.T) {
	if _, err := NewCA("", detRand(1)); err == nil {
		t.Error("empty CA name should error")
	}
	ca, _ := NewCA("x", detRand(1))
	k, _ := GenerateKey(detRand(2))
	if _, err := ca.Issue(nil, k.Public, time.Hour); err == nil {
		t.Error("empty subject should error")
	}
	if _, err := ca.Issue([]byte("s"), k.Public[:5], time.Hour); err == nil {
		t.Error("short key should error")
	}
}

func TestCertSerialStable(t *testing.T) {
	ca, _ := NewCA("TA", detRand(1))
	k, _ := GenerateKey(detRand(2))
	cert, _ := ca.Issue([]byte("v"), k.Public, time.Hour)
	if cert.SerialOf() != cert.SerialOf() {
		t.Error("serial not stable")
	}
	cert2, _ := ca.Issue([]byte("w"), k.Public, time.Hour)
	if cert.SerialOf() == cert2.SerialOf() {
		t.Error("distinct certs share a serial")
	}
}

func TestCRLLinearAndBloomAgree(t *testing.T) {
	c := NewCRL(1000)
	rng := detRand(5)
	var revoked []Serial
	for i := 0; i < 500; i++ {
		var s Serial
		rng.Read(s[:])
		c.Add(s)
		revoked = append(revoked, s)
	}
	if c.Len() != 500 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Every revoked serial must be found by both paths.
	for _, s := range revoked {
		if ok, _ := c.ContainsLinear(s); !ok {
			t.Fatal("linear missed a revoked serial")
		}
		if ok, _ := c.ContainsBloom(s); !ok {
			t.Fatal("bloom missed a revoked serial (impossible for blooms)")
		}
	}
	// Non-revoked serials: linear always correct; bloom may rarely cost a
	// probe but must return not-revoked.
	falseProbes := 0
	for i := 0; i < 2000; i++ {
		var s Serial
		rng.Read(s[:])
		if ok, scanned := c.ContainsLinear(s); ok {
			t.Fatal("linear false positive")
		} else if scanned != c.Len() {
			t.Fatal("linear scan count wrong for a miss")
		}
		ok, scanned := c.ContainsBloom(s)
		if ok {
			t.Fatal("bloom+index returned revoked for fresh serial")
		}
		if scanned > 0 {
			falseProbes++
		}
	}
	// ~10 bits/entry with k=4 keeps false probes low.
	if falseProbes > 200 {
		t.Errorf("bloom false-probe rate too high: %d/2000", falseProbes)
	}
}

func TestCRLDuplicateAdd(t *testing.T) {
	c := NewCRL(10)
	var s Serial
	s[0] = 7
	c.Add(s)
	c.Add(s)
	if c.Len() != 1 {
		t.Errorf("Len after duplicate add = %d", c.Len())
	}
	if got := c.Serials(); len(got) != 1 || got[0] != s {
		t.Errorf("Serials = %v", got)
	}
}

func TestCRLScanCostGrowsLinear(t *testing.T) {
	c := NewCRL(4096)
	rng := detRand(6)
	for i := 0; i < 2000; i++ {
		var s Serial
		rng.Read(s[:])
		c.Add(s)
	}
	var s Serial
	rng.Read(s[:])
	_, scanLinear := c.ContainsLinear(s)
	_, scanBloom := c.ContainsBloom(s)
	if scanLinear != 2000 {
		t.Errorf("linear miss scanned %d, want 2000", scanLinear)
	}
	if scanBloom > 1 {
		t.Errorf("bloom miss scanned %d, want <= 1", scanBloom)
	}
}

func TestGroupSignVerifyOpen(t *testing.T) {
	gm, err := NewGroupManager("cluster-9", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := gm.Enroll("alice", detRand(2))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := gm.Enroll("bob", detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if gm.NumMembers() != 2 {
		t.Fatalf("NumMembers = %d", gm.NumMembers())
	}
	msg := []byte("brake ahead")
	sig := alice.Sign(msg, 1)
	if !VerifyGroupSig(gm.PublicKey(), msg, sig) {
		t.Error("valid group signature rejected")
	}
	if VerifyGroupSig(gm.PublicKey(), []byte("other"), sig) {
		t.Error("tampered message accepted")
	}
	// Opening identifies the signer; bob's signature opens to bob.
	if got := gm.Open(sig); got != "alice" {
		t.Errorf("Open = %q, want alice", got)
	}
	if got := gm.Open(bob.Sign(msg, 5)); got != "bob" {
		t.Errorf("Open = %q, want bob", got)
	}
	// A foreign group's signature neither verifies nor opens.
	gm2, _ := NewGroupManager("other", detRand(9))
	carol, _ := gm2.Enroll("carol", detRand(10))
	foreign := carol.Sign(msg, 1)
	if VerifyGroupSig(gm.PublicKey(), msg, foreign) {
		t.Error("foreign signature verified")
	}
	if gm.Open(foreign) != "" {
		t.Error("foreign signature opened")
	}
}

func TestGroupSignaturesUnlinkableTags(t *testing.T) {
	gm, _ := NewGroupManager("g", detRand(1))
	alice, _ := gm.Enroll("alice", detRand(2))
	s1 := alice.Sign([]byte("m"), 1)
	s2 := alice.Sign([]byte("m"), 2)
	if s1.Tag == s2.Tag {
		t.Error("tags repeat across nonces (linkable)")
	}
}

func TestGroupRevocation(t *testing.T) {
	gm, _ := NewGroupManager("g", detRand(1))
	alice, _ := gm.Enroll("alice", detRand(2))
	sig := alice.Sign([]byte("m"), 1)
	if !gm.CheckNotRevoked(sig) {
		t.Error("enrolled member reported revoked")
	}
	gm.Revoke("alice")
	if !gm.IsRevoked("alice") {
		t.Error("IsRevoked false after Revoke")
	}
	if gm.CheckNotRevoked(sig) {
		t.Error("revoked member passed revocation check")
	}
	// Re-enrollment clears revocation.
	alice2, _ := gm.Enroll("alice", detRand(3))
	if gm.CheckNotRevoked(alice2.Sign([]byte("m"), 9)) != true {
		t.Error("re-enrolled member rejected")
	}
}

func TestGroupValidation(t *testing.T) {
	if _, err := NewGroupManager("", detRand(1)); err == nil {
		t.Error("empty group id should error")
	}
	gm, _ := NewGroupManager("g", detRand(1))
	if _, err := gm.Enroll("", detRand(2)); err == nil {
		t.Error("empty member id should error")
	}
}

func TestPseudonymPool(t *testing.T) {
	ca, _ := NewCA("TA", detRand(1))
	pool, serials := issuePseudonyms(t, ca, 5, detRand(2))
	if pool.Size() != 5 || len(serials) != 5 {
		t.Fatalf("size = %d serials = %d", pool.Size(), len(serials))
	}
	// All pseudonym certs verify under the CA; subjects are distinct.
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		e := pool.Current()
		if err := CheckCert(&e.Cert, ca.PublicKey(), 0); err != nil {
			t.Errorf("pseudonym %d invalid: %v", i, err)
		}
		if seen[string(e.Cert.Subject)] {
			t.Error("pseudonym subject repeats")
		}
		seen[string(e.Cert.Subject)] = true
		pool.Rotate()
	}
	if pool.UsedCount() != 5 {
		t.Errorf("UsedCount = %d", pool.UsedCount())
	}
	// Wrap-around.
	first := pool.Current().Cert.SerialOf()
	if first != serials[0] {
		t.Error("pool did not wrap to the first pseudonym")
	}
	if _, _, err := NewPseudonymPool(nil); err == nil {
		t.Error("zero pool size should error")
	}
}

// TestIssueAllMatchesSerialIssue: drawing every key seed and subject
// first and certifying them on any number of cores yields what drawing
// and issuing one pseudonym at a time did — the same keys, certificates
// and serials — and leaves the reader at the same place.
func TestIssueAllMatchesSerialIssue(t *testing.T) {
	const n = 21
	ca, _ := NewCA("TA", detRand(1))

	ref := detRand(2)
	want := make([]PseudonymEntry, n)
	for i := range want {
		key, err := GenerateKey(ref)
		if err != nil {
			t.Fatal(err)
		}
		subject := make([]byte, 16)
		if _, err := io.ReadFull(ref, subject); err != nil {
			t.Fatal(err)
		}
		if want[i].Cert, err = ca.Issue(subject, key.Public, time.Hour); err != nil {
			t.Fatal(err)
		}
		want[i].Key = key
	}
	wantNext := make([]byte, 64)
	ref.Read(wantNext)

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		r := detRand(2)
		draws := make([]KeyDraw, n)
		for i := range draws {
			var err error
			if draws[i], err = DrawPseudonym(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := ca.IssueAll(draws, time.Hour)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: issued entries differ from serial issue", procs)
		}
		next := make([]byte, 64)
		r.Read(next)
		if !bytes.Equal(next, wantNext) {
			t.Errorf("GOMAXPROCS %d: reader left at a different place", procs)
		}
	}
	empty, err := DrawKey(nil, detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.IssueAll([]KeyDraw{empty}, time.Hour); err == nil {
		t.Error("empty subject should error")
	}
}

func TestIDChain(t *testing.T) {
	c, err := NewIDChain(detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	id0 := c.Next()
	id1 := c.Next()
	if id0 == id1 {
		t.Error("chain ids repeat")
	}
	seed := c.Seed()
	if !VerifyChainID(seed, 0, id0) || !VerifyChainID(seed, 1, id1) {
		t.Error("TA-side chain verification failed")
	}
	if VerifyChainID(seed, 1, id0) {
		t.Error("wrong index verified")
	}
	var otherSeed [32]byte
	if VerifyChainID(otherSeed, 0, id0) {
		t.Error("wrong seed verified")
	}
}

func BenchmarkEd25519Verify(b *testing.B) {
	k, _ := GenerateKey(detRand(1))
	msg := []byte("benchmark message for verification cost")
	sig := k.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(k.Public, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkCRLLinearVsBloom(b *testing.B) {
	c := NewCRL(10000)
	rng := detRand(1)
	for i := 0; i < 10000; i++ {
		var s Serial
		rng.Read(s[:])
		c.Add(s)
	}
	var probe Serial
	rng.Read(probe[:])
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ContainsLinear(probe)
		}
	})
	b.Run("bloom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ContainsBloom(probe)
		}
	})
}
