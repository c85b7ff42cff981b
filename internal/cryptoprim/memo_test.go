package cryptoprim

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"
)

// triple is one (pub, msg, sig) input to Verify.
type triple struct{ pub, msg, sig []byte }

func (tr triple) verify(m *VerifyMemo) bool { return m.Verify(tr.pub, tr.msg, tr.sig) }

// mutants returns inputs one step away from a valid triple: a bit flipped
// in each of the three parts, and each fixed-width part at a wrong length.
func mutants(tr triple, bit int) []triple {
	flip := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[(bit/8)%len(out)] ^= 1 << (bit % 8)
		return out
	}
	return []triple{
		{flip(tr.pub), tr.msg, tr.sig},
		{tr.pub, flip(tr.msg), tr.sig},
		{tr.pub, tr.msg, flip(tr.sig)},
		{tr.pub[:31], tr.msg, tr.sig},
		{append(append([]byte(nil), tr.pub...), 0), tr.msg, tr.sig},
		{nil, tr.msg, tr.sig},
		{tr.pub, tr.msg, tr.sig[:63]},
		{tr.pub, tr.msg, append(append([]byte(nil), tr.sig...), 0)},
		{tr.pub, tr.msg, nil},
		{tr.pub, append(append([]byte(nil), tr.msg...), 0), tr.sig},
	}
}

func validTriple(t testing.TB, seed int64) triple {
	t.Helper()
	rng := detRand(seed)
	key, err := GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1+rng.Intn(300))
	rng.Read(msg)
	return triple{key.Public, msg, key.Sign(msg)}
}

// The memo never answers true where Verify answers false — before or
// after the valid twin of the input was remembered, in a memo of its own
// or one shared with every other triple — and a nil memo is Verify.
func TestVerifyMemoMatchesVerify(t *testing.T) {
	shared := &VerifyMemo{}
	var none *VerifyMemo
	for seed := int64(1); seed <= 40; seed++ {
		tr := validTriple(t, seed)
		own := &VerifyMemo{}
		check := func(when string) {
			t.Helper()
			for i, mu := range mutants(tr, int(seed)*37) {
				want := Verify(mu.pub, mu.msg, mu.sig)
				for name, m := range map[string]*VerifyMemo{"own": own, "shared": shared, "nil": none} {
					if got := mu.verify(m); got != want {
						t.Fatalf("seed %d mutant %d %s (%s memo): memo says %v, Verify says %v", seed, i, when, name, got, want)
					}
				}
			}
		}
		check("before the valid triple was seen")
		for round := 0; round < 3; round++ { // miss, then hits
			if !tr.verify(own) || !tr.verify(shared) || !tr.verify(none) {
				t.Fatalf("seed %d round %d: valid triple rejected", seed, round)
			}
		}
		check("after the valid triple was remembered")
		if len(own.verified) != 1 {
			t.Fatalf("seed %d: memo holds %d entries; only the one valid triple may be remembered", seed, len(own.verified))
		}
	}
	if len(shared.verified) != 40 {
		t.Errorf("shared memo holds %d entries, want 40", len(shared.verified))
	}
}

// A full memo forgets everything and refills; forgetting only costs a
// re-verification, it never changes an answer.
func TestVerifyMemoWrapsAtCapacity(t *testing.T) {
	m := &VerifyMemo{verified: make(map[[sha256.Size]byte]struct{})}
	for i := 0; i < memoCap-1; i++ { // stand-ins for memoCap-1 remembered triples
		var k [sha256.Size]byte
		binary.BigEndian.PutUint64(k[:], uint64(i)+1)
		m.verified[k] = struct{}{}
	}
	a, b := validTriple(t, 101), validTriple(t, 102)
	if !a.verify(m) || len(m.verified) != memoCap {
		t.Fatalf("last free slot: len %d, want %d", len(m.verified), memoCap)
	}
	if !b.verify(m) || len(m.verified) != 1 {
		t.Fatalf("a full memo must clear and restart: len %d, want 1", len(m.verified))
	}
	if !a.verify(m) || !b.verify(m) || len(m.verified) != 2 {
		t.Fatalf("after the wrap: len %d, want 2", len(m.verified))
	}
	for i, mu := range mutants(a, 5) {
		if mu.verify(m) {
			t.Errorf("mutant %d accepted after the wrap", i)
		}
	}
}

func TestVerifyMemoHitAllocFree(t *testing.T) {
	tr, m := validTriple(t, 7), &VerifyMemo{}
	tr.verify(m)
	if n := testing.AllocsPerRun(100, func() {
		if !tr.verify(m) {
			t.Fatal("remembered triple rejected")
		}
	}); n != 0 {
		t.Errorf("memo hit allocates %v times, want 0", n)
	}
}

// CheckCert through a memo still tests expiry on every call and still
// rejects a certificate altered after its twin was remembered.
func TestMemoCheckCert(t *testing.T) {
	ca, err := NewCA("TA-root", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	key, _ := GenerateKey(detRand(2))
	cert, err := ca.Issue([]byte("pseudonym"), key.Public, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	m := &VerifyMemo{}
	for i := 0; i < 2; i++ {
		if err := m.CheckCert(&cert, ca.PublicKey(), time.Minute); err != nil {
			t.Fatalf("call %d: valid certificate rejected: %v", i, err)
		}
	}
	if err := m.CheckCert(&cert, ca.PublicKey(), 2*time.Hour); err == nil {
		t.Error("expired certificate accepted from the memo")
	}
	other, _ := GenerateKey(detRand(3))
	for name, alter := range map[string]func(c *Certificate){
		"subject":  func(c *Certificate) { c.Subject = []byte("pseudonyn") },
		"key":      func(c *Certificate) { c.PubKey = other.Public },
		"notAfter": func(c *Certificate) { c.NotAfter = 3 * time.Hour },
	} {
		bad := cert
		alter(&bad)
		if err := m.CheckCert(&bad, ca.PublicKey(), time.Minute); err == nil {
			t.Errorf("certificate with altered %s accepted", name)
		}
	}
	if err := m.CheckCert(nil, ca.PublicKey(), 0); err == nil {
		t.Error("nil certificate accepted")
	}
}

// One relying party checking the same twenty pseudonym certificates over
// and over, as a vehicle does with its gate's pool.
func BenchmarkCheckCertRepeat(b *testing.B) {
	rng := detRand(1)
	ca, _ := NewCA("TA", rng)
	pool, _, err := IssuePseudonyms(ca, 20, time.Hour, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := &VerifyMemo{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.CheckCert(&pool.Current().Cert, ca.PublicKey(), time.Minute); err != nil {
			b.Fatal(err)
		}
		pool.Rotate()
	}
}
