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

// drawPseudonyms draws n pseudonyms from rand.
func drawPseudonyms(tb testing.TB, n int, rand io.Reader) []KeyDraw {
	tb.Helper()
	draws := make([]KeyDraw, n)
	for i := range draws {
		var err error
		if draws[i], err = DrawPseudonym(rand); err != nil {
			tb.Fatal(err)
		}
	}
	return draws
}

// issuePseudonyms draws n pseudonyms from rand into a pool ca certifies,
// and lists their serials.
func issuePseudonyms(tb testing.TB, ca *CA, n int, rand io.Reader) (*PseudonymPool, []Serial) {
	tb.Helper()
	draws := drawPseudonyms(tb, n, rand)
	pool, err := NewPseudonymPool(ca, draws, time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	return pool, ca.Serials(draws, time.Hour)
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

// TestGroupSigBindsFieldBoundaries: the signed digest frames the message
// and the group ID, so moving bytes from one to the other breaks the
// signature.
func TestGroupSigBindsFieldBoundaries(t *testing.T) {
	gm, _ := NewGroupManager("TA-group", detRand(1))
	alice, _ := gm.Enroll("alice", detRand(2))
	msg := []byte("brake ahead")
	sig := alice.Sign(msg, 1)
	shifted := sig
	shifted.GroupID = "A-group"
	if VerifyGroupSig(gm.PublicKey(), append(msg[:len(msg):len(msg)], 'T'), shifted) {
		t.Error(`signature over (m, "TA-group") verified over (m‖"T", "A-group")`)
	}
	shifted.GroupID = "dTA-group"
	if VerifyGroupSig(gm.PublicKey(), msg[:len(msg)-1], shifted) {
		t.Error(`signature over ("brake ahead", "TA-group") verified over ("brake ahea", "dTA-group")`)
	}
	if !VerifyGroupSig(gm.PublicKey(), msg, sig) {
		t.Error("valid group signature rejected")
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
	if _, err := NewPseudonymPool(ca, nil, time.Hour); err == nil {
		t.Error("zero pool size should error")
	}
}

// serialIssue draws and issues n pseudonyms one at a time from rand: the
// eager reference the lazy pool and CA.Serials are held to.
func serialIssue(t *testing.T, ca *CA, n int, rand io.Reader) []PseudonymEntry {
	t.Helper()
	out := make([]PseudonymEntry, n)
	for i := range out {
		key, err := GenerateKey(rand)
		if err != nil {
			t.Fatal(err)
		}
		subject := make([]byte, 16)
		if _, err := io.ReadFull(rand, subject); err != nil {
			t.Fatal(err)
		}
		if out[i].Cert, err = ca.Issue(subject, key.Public, time.Hour); err != nil {
			t.Fatal(err)
		}
		out[i].Key = key
	}
	return out
}

// TestCurrentMatchesIssue: a pool that issues each pseudonym on its first
// read hands out, across a wrap, what drawing and issuing one pseudonym
// at a time gives — the same keys and certificates byte for byte — and its
// draws leave the reader at the same place.
func TestCurrentMatchesIssue(t *testing.T) {
	const n = 21
	ca, _ := NewCA("TA", detRand(1))
	ref := detRand(2)
	want := serialIssue(t, ca, n, ref)
	wantNext := make([]byte, 64)
	ref.Read(wantNext)

	r := detRand(2)
	pool, err := NewPseudonymPool(ca, drawPseudonyms(t, n, r), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]byte, 64)
	r.Read(next)
	if !bytes.Equal(next, wantNext) {
		t.Error("draws left the reader at a different place")
	}
	for i := 0; i < 2*n+3; i++ {
		if got := pool.Current(); !reflect.DeepEqual(*got, want[i%n]) {
			t.Fatalf("presentation %d: entry differs from serial issue", i)
		}
		pool.Rotate()
	}
}

// TestSerialsMatchSerialOf: the serials CA.Serials derives without
// signing are the serials of the issued certificates, in draw order, at
// any core count.
func TestSerialsMatchSerialOf(t *testing.T) {
	const n = 21
	ca, _ := NewCA("TA", detRand(1))
	want := make([]Serial, n)
	for i, e := range serialIssue(t, ca, n, detRand(2)) {
		want[i] = e.Cert.SerialOf()
	}
	draws := drawPseudonyms(t, n, detRand(2))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := ca.Serials(draws, time.Hour)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: serials differ from the issued certificates'", procs)
		}
	}
}

// TestPoolIssuesOnFirstPresentation: a new pool has issued nothing; each
// pseudonym is issued the first time it is read and never again, so after
// k distinct presentations exactly k are issued.
func TestPoolIssuesOnFirstPresentation(t *testing.T) {
	const n = 5
	ca, _ := NewCA("TA", detRand(1))
	pool, _ := issuePseudonyms(t, ca, n, detRand(2))
	if got := pool.Issued(); got != 0 {
		t.Fatalf("new pool issued %d, want 0", got)
	}
	sigs := make([]*byte, n)
	for k := 1; k <= 2*n; k++ { // round the pool twice
		pool.Current()
		sig := &pool.Current().Cert.Signature[0]
		if want := min(k, n); pool.Issued() != want {
			t.Fatalf("presentation %d: issued %d, want %d", k, pool.Issued(), want)
		}
		if i := (k - 1) % n; sigs[i] == nil {
			sigs[i] = sig
		} else if sigs[i] != sig {
			t.Fatalf("presentation %d: pseudonym %d issued again after the wrap", k, i)
		}
		pool.Rotate()
	}
}

// TestDrawRejectsEmptySubject: an empty subject fails at draw time, before
// the reader is touched, so certifying a draw on first presentation has
// nothing left to reject.
func TestDrawRejectsEmptySubject(t *testing.T) {
	for _, subject := range [][]byte{nil, {}} {
		r := detRand(3)
		if _, err := DrawKey(subject, r); err == nil {
			t.Errorf("DrawKey(%q) accepted an empty subject", subject)
		}
		if got, want := r.Int63(), detRand(3).Int63(); got != want {
			t.Error("a rejected draw read from the reader")
		}
	}
	if _, err := DrawKey([]byte("v"), detRand(3)); err != nil {
		t.Errorf("DrawKey with a subject: %v", err)
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
