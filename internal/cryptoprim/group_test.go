package cryptoprim

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestTagMatchesCryptoHMAC(t *testing.T) {
	rng := detRand(11)
	nonces := []uint64{0, 1, math.MaxUint64, 1 << 63}
	for i := 0; i < 200; i++ {
		nonces = append(nonces, rng.Uint64())
	}
	for _, nonce := range nonces {
		var secret [32]byte
		rng.Read(secret[:])
		mac := hmac.New(sha256.New, secret[:])
		mac.Write(uint64Bytes(nonce))
		if got, want := openingTag(&secret, nonce), mac.Sum(nil); !hmac.Equal(got[:], want) {
			t.Fatalf("nonce %#x: openingTag %x, crypto/hmac %x", nonce, got, want)
		}
	}
}

// groupModel is the map-of-secrets manager this package had before the
// member roll, kept as the oracle: Open tries every member in whatever
// order the map yields.
type groupModel struct {
	members map[string][]byte
	revoked map[string]struct{}
}

func (g *groupModel) open(sig GroupSig) string {
	for id, secret := range g.members {
		mac := hmac.New(sha256.New, secret)
		mac.Write(uint64Bytes(sig.Nonce))
		if hmac.Equal(mac.Sum(nil), sig.Tag[:]) {
			return id
		}
	}
	return ""
}

func (g *groupModel) checkNotRevoked(sig GroupSig) bool {
	id := g.open(sig)
	_, revoked := g.revoked[id]
	return id != "" && !revoked
}

// Random enrol / re-enrol / revoke / sign sequences: the roll answers
// exactly as the map did, whatever order it has organised itself into.
func TestOpenMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := detRand(seed)
		gm, err := NewGroupManager("g", rng)
		if err != nil {
			t.Fatal(err)
		}
		foreign, _ := NewGroupManager("g", rng) // same group id, other secrets
		model := &groupModel{members: map[string][]byte{}, revoked: map[string]struct{}{}}
		var creds []GroupCred // every credential ever issued, rotated-out ones included
		var strangers []GroupCred
		msg := []byte("m")
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("veh-%d", rng.Intn(24))
			switch op := rng.Intn(10); {
			case op < 3: // enrol, or re-enrol: rotates the secret and lifts a revocation
				cred, err := gm.Enroll(id, rng)
				if err != nil {
					t.Fatal(err)
				}
				model.members[id] = append([]byte(nil), cred.secret[:]...)
				delete(model.revoked, id)
				creds = append(creds, cred)
				if rng.Intn(3) == 0 {
					s, _ := foreign.Enroll(id, rng)
					strangers = append(strangers, s)
				}
			case op == 3: // revoke, enrolled or not
				gm.Revoke(id)
				model.revoked[id] = struct{}{}
			}
			var sig GroupSig
			nonce := rng.Uint64()
			switch kind := rng.Intn(8); {
			case kind == 0 && len(strangers) > 0:
				sig = strangers[rng.Intn(len(strangers))].Sign(msg, nonce)
			case kind == 1:
				sig = GroupSig{GroupID: "g", Nonce: nonce}
				rng.Read(sig.Tag[:])
			case len(creds) > 0:
				c := creds[rng.Intn(len(creds))]
				if rng.Intn(2) == 0 { // favour a few recent signers, as a gate's traffic does
					c = creds[len(creds)-1-rng.Intn(min(3, len(creds)))]
				}
				sig = c.Sign(msg, nonce)
			}
			for rep := 0; rep < 2; rep++ { // the second call sees the reordered roll
				if got, want := gm.Open(sig), model.open(sig); got != want {
					t.Fatalf("seed %d step %d: Open = %q, map model = %q", seed, step, got, want)
				}
				if got, want := gm.CheckNotRevoked(sig), model.checkNotRevoked(sig); got != want {
					t.Fatalf("seed %d step %d: CheckNotRevoked = %v, map model = %v", seed, step, got, want)
				}
			}
			if gm.NumMembers() != len(model.members) {
				t.Fatalf("seed %d step %d: %d members, model has %d", seed, step, gm.NumMembers(), len(model.members))
			}
		}
	}
}

func TestReEnrollRotatesSecretInPlace(t *testing.T) {
	rng := detRand(1)
	gm, _ := NewGroupManager("g", rng)
	var old GroupCred
	for _, id := range []string{"a", "b", "c"} {
		c, err := gm.Enroll(id, rng)
		if err != nil {
			t.Fatal(err)
		}
		if id == "b" {
			old = c
		}
	}
	gm.Revoke("b")
	fresh, err := gm.Enroll("b", rng)
	if err != nil {
		t.Fatal(err)
	}
	if gm.NumMembers() != 3 {
		t.Fatalf("re-enrolment appended a row: %d members", gm.NumMembers())
	}
	if got := gm.Open(old.Sign([]byte("m"), 1)); got != "" {
		t.Errorf("rotated-out credential still opens to %q", got)
	}
	if sig := fresh.Sign([]byte("m"), 2); gm.Open(sig) != "b" || !gm.CheckNotRevoked(sig) {
		t.Error("fresh credential of a re-enrolled member must open to it, unrevoked")
	}
}

// A hit moves to the front and keeps everyone else in order, so recurring
// signers gather at the head of the roll however many are enrolled.
func TestOpenSelfOrganises(t *testing.T) {
	gm, _ := NewGroupManager("g", detRand(1))
	rng := detRand(2)
	creds := make([]GroupCred, 64)
	for i := range creds {
		creds[i], _ = gm.Enroll(fmt.Sprintf("veh-%d", i), rng)
	}
	for nonce, i := range []int{63, 40, 63, 7} {
		if got := gm.Open(creds[i].Sign(nil, uint64(nonce))); got != creds[i].MemberID {
			t.Fatalf("Open = %q, want %q", got, creds[i].MemberID)
		}
	}
	var got []string
	for _, m := range gm.roll[:5] {
		got = append(got, m.id)
	}
	if want := []string{"veh-7", "veh-63", "veh-40", "veh-0", "veh-1"}; !slices.Equal(got, want) {
		t.Errorf("head of the roll = %v, want %v", got, want)
	}
}

func TestOpenAllocFree(t *testing.T) {
	gm, _ := NewGroupManager("g", detRand(1))
	rng := detRand(2)
	var cred GroupCred
	for i := 0; i < 50; i++ {
		cred, _ = gm.Enroll(fmt.Sprintf("veh-%d", i), rng)
	}
	hit, miss := cred.Sign([]byte("m"), 9), GroupSig{Nonce: 9}
	if n := testing.AllocsPerRun(50, func() {
		if gm.Open(hit) == "" || gm.Open(miss) != "" {
			t.Fatal("wrong answer")
		}
	}); n != 0 {
		t.Errorf("Open allocates %v times, want 0", n)
	}
}

// A gate's traffic: 400 enrolled, 60 of them — spread over the enrolment
// order — signing again and again. The warm-up lets the roll settle.
func BenchmarkGroupOpen(b *testing.B) {
	rng := detRand(1)
	gm, _ := NewGroupManager("g", rng)
	var sigs []GroupSig
	for i := 0; i < 400; i++ {
		cred, err := gm.Enroll(fmt.Sprintf("veh-%d", i), rng)
		if err != nil {
			b.Fatal(err)
		}
		if i%20 < 3 {
			sigs = append(sigs, cred.Sign([]byte("m"), uint64(i)))
		}
	}
	for i := 0; i < 20*len(sigs); i++ {
		gm.Open(sigs[rng.Intn(len(sigs))])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gm.Open(sigs[rng.Intn(len(sigs))]) == "" {
			b.Fatal("signer not identified")
		}
	}
}
