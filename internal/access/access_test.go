package access

import (
	"bytes"
	"math/rand"
	"testing"

	"vcloud/internal/cryptoprim"
	"vcloud/internal/geo"
)

func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

const (
	attrHead   AttributeID = "traffic/role:cluster-head"
	attrBuffer AttributeID = "traffic/role:buffer-node"
	attrMed    AttributeID = "city/automation:3+"
	attrPolice AttributeID = "city/role:police"
)

func basicPolicy() Policy {
	return Policy{
		Resource: "road-conditions",
		Rules: []Rule{
			{Action: Read, AnyOf: []Clause{{attrHead, attrMed}, {attrPolice}}},
			{Action: Write, AnyOf: []Clause{{attrHead}}},
		},
	}
}

func TestPolicyValidate(t *testing.T) {
	p := basicPolicy()
	if err := p.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	bad := []Policy{
		{},
		{Resource: "r"},
		{Resource: "r", Rules: []Rule{{Action: Read}}},
		{Resource: "r", Rules: []Rule{{Action: Read, AnyOf: []Clause{{}}}}},
		{Resource: "r", Rules: []Rule{{AnyOf: []Clause{{attrHead}}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
}

func TestEvaluate(t *testing.T) {
	p := basicPolicy()
	tests := []struct {
		name   string
		attrs  AttrSet
		action Action
		want   bool
	}{
		{"head+automation reads", AttrSet{attrHead: 0, attrMed: 0}, Read, true},
		{"police reads alone", AttrSet{attrPolice: 0}, Read, true},
		{"head alone cannot read", AttrSet{attrHead: 0}, Read, false},
		{"head alone writes", AttrSet{attrHead: 0}, Write, true},
		{"police cannot write", AttrSet{attrPolice: 0}, Write, false},
		{"nobody computes", AttrSet{attrHead: 0, attrPolice: 0, attrMed: 0}, Compute, false},
		{"empty attrs denied", AttrSet{}, Read, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Evaluate(&p, tt.attrs, tt.action, Context{})
			if d.Allowed != tt.want {
				t.Errorf("allowed = %v, want %v", d.Allowed, tt.want)
			}
			if d.Allowed && len(d.MatchedClause) == 0 {
				t.Error("allowed without matched clause")
			}
			if !d.Allowed && d.MatchedClause != nil {
				t.Error("denied with matched clause")
			}
		})
	}
}

func TestEvaluateWorkCounters(t *testing.T) {
	p := basicPolicy()
	d := Evaluate(&p, AttrSet{attrPolice: 0}, Read, Context{})
	// Clause 1 {head,med} fails at first attr; clause 2 {police} matches.
	if d.ClausesChecked != 2 {
		t.Errorf("ClausesChecked = %d, want 2", d.ClausesChecked)
	}
	if d.AttrsChecked != 2 {
		t.Errorf("AttrsChecked = %d, want 2", d.AttrsChecked)
	}
}

func TestContextRules(t *testing.T) {
	area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100})
	p := Policy{
		Resource: "r",
		Rules: []Rule{
			{
				Action:  Read,
				AnyOf:   []Clause{{attrHead}},
				Context: ContextRule{Area: &area, MaxSpeed: 20},
			},
			{
				Action:  Read,
				AnyOf:   []Clause{{attrBuffer}},
				Context: ContextRule{EmergencyOnly: true},
			},
		},
	}
	attrs := AttrSet{attrHead: 0, attrBuffer: 0}
	// Inside area, slow: allowed.
	d := Evaluate(&p, attrs, Read, Context{Pos: geo.Point{X: 50, Y: 50}, Speed: 10})
	if !d.Allowed {
		t.Error("in-area slow request denied")
	}
	// Outside area: first rule skipped; second needs emergency.
	d = Evaluate(&p, attrs, Read, Context{Pos: geo.Point{X: 500, Y: 500}, Speed: 10})
	if d.Allowed {
		t.Error("out-of-area request allowed")
	}
	// Too fast.
	d = Evaluate(&p, attrs, Read, Context{Pos: geo.Point{X: 50, Y: 50}, Speed: 40})
	if d.Allowed {
		t.Error("over-speed request allowed")
	}
	// Emergency unlocks the second rule anywhere.
	d = Evaluate(&p, attrs, Read, Context{Pos: geo.Point{X: 500, Y: 500}, Emergency: true})
	if !d.Allowed {
		t.Error("emergency escalation did not grant access")
	}
}

func TestAuthorityGrantRevoke(t *testing.T) {
	a, err := NewAuthority("traffic", detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	k1 := a.Grant(attrHead)
	k2 := a.Grant(attrHead)
	if k1 != k2 {
		t.Error("same-epoch grants differ")
	}
	a.Revoke(attrHead)
	k3 := a.Grant(attrHead)
	if k3.Epoch != k1.Epoch+1 {
		t.Errorf("epoch after revoke = %d", k3.Epoch)
	}
	if k3.Secret == k1.Secret {
		t.Error("revocation did not change the secret")
	}
	if _, err := NewAuthority("", detRand(1)); err == nil {
		t.Error("empty name should error")
	}
}

func TestKeyring(t *testing.T) {
	a, _ := NewAuthority("traffic", detRand(1))
	ring := NewKeyring()
	ring.Add(a.Grant(attrHead))
	if !ring.Has(attrHead) || ring.Has(attrMed) {
		t.Error("Has wrong")
	}
	attrs := ring.Attrs()
	if _, ok := attrs[attrHead]; !ok {
		t.Error("Attrs missing granted attribute")
	}
	if _, ok := ring.kek(Clause{attrHead, attrMed}); ok {
		t.Error("kek derived despite missing attribute")
	}
	kek1, ok := ring.kek(Clause{attrHead})
	if !ok {
		t.Fatal("kek failed")
	}
	// Clause order must not matter.
	ring.Add(a.Grant(attrMed))
	kekAB, _ := ring.kek(Clause{attrHead, attrMed})
	kekBA, _ := ring.kek(Clause{attrMed, attrHead})
	if kekAB != kekBA {
		t.Error("kek depends on clause order")
	}
	if kekAB == kek1 {
		t.Error("different clauses share a kek")
	}
}

// sealRig builds a package readable by cluster heads with automation 3+,
// or police.
type sealRig struct {
	traffic, city *Authority
	owner         cryptoprim.KeyPair
	pkg           *Package
	data          []byte
}

func newSealRig(t testing.TB) *sealRig {
	t.Helper()
	r := &sealRig{data: []byte("icy patch at x=410, slow to 30km/h")}
	var err error
	if r.traffic, err = NewAuthority("traffic", detRand(1)); err != nil {
		t.Fatal(err)
	}
	if r.city, err = NewAuthority("city", detRand(2)); err != nil {
		t.Fatal(err)
	}
	if r.owner, err = cryptoprim.GenerateKey(detRand(3)); err != nil {
		t.Fatal(err)
	}
	lookup := func(id AttributeID) (AttrKey, bool) {
		switch id {
		case attrHead, attrBuffer:
			return r.traffic.Grant(id), true
		case attrMed, attrPolice:
			return r.city.Grant(id), true
		}
		return AttrKey{}, false
	}
	pkg, err := Seal("road-conditions", r.data, basicPolicy(), 7, r.owner, lookup, detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	r.pkg = pkg
	return r
}

func TestSealAndOpen(t *testing.T) {
	r := newSealRig(t)
	ring := NewKeyring()
	ring.Add(r.traffic.Grant(attrHead))
	ring.Add(r.city.Grant(attrMed))
	plain, d, err := r.pkg.Open(ring, Context{Now: 100}, [32]byte{1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(plain, r.data) {
		t.Error("decrypted data mismatch")
	}
	if !d.Allowed {
		t.Error("decision should be allowed")
	}
}

func TestOpenDeniedWithoutAttributes(t *testing.T) {
	r := newSealRig(t)
	ring := NewKeyring()
	ring.Add(r.traffic.Grant(attrBuffer)) // wrong role
	if _, d, err := r.pkg.Open(ring, Context{Now: 5}, [32]byte{2}); err == nil || d.Allowed {
		t.Error("unauthorized open succeeded")
	}
	// The denial must still be audited.
	if len(r.pkg.Audit) != 1 || r.pkg.Audit[0].Allowed {
		t.Errorf("audit = %+v", r.pkg.Audit)
	}
}

func TestOpenAfterRevocationFails(t *testing.T) {
	r := newSealRig(t)
	// Grant keys, then revoke the attribute (epoch bump) and re-seal a
	// new package; the old keys must not open it.
	ring := NewKeyring()
	ring.Add(r.traffic.Grant(attrHead))
	ring.Add(r.city.Grant(attrMed))
	r.traffic.Revoke(attrHead)
	lookup := func(id AttributeID) (AttrKey, bool) {
		switch id {
		case attrHead, attrBuffer:
			return r.traffic.Grant(id), true
		case attrMed, attrPolice:
			return r.city.Grant(id), true
		}
		return AttrKey{}, false
	}
	pkg2, err := Seal("road-conditions", r.data, basicPolicy(), 8, r.owner, lookup, detRand(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pkg2.Open(ring, Context{}, [32]byte{3}); err == nil {
		t.Error("stale keys opened a post-revocation package")
	}
	// Fresh keys work.
	ring2 := NewKeyring()
	ring2.Add(r.traffic.Grant(attrHead))
	ring2.Add(r.city.Grant(attrMed))
	if _, _, err := pkg2.Open(ring2, Context{}, [32]byte{4}); err != nil {
		t.Errorf("fresh keys failed: %v", err)
	}
}

func TestPackageIntegrity(t *testing.T) {
	r := newSealRig(t)
	if err := r.pkg.VerifyIntegrity(); err != nil {
		t.Fatalf("intact package rejected: %v", err)
	}
	// Tamper with the policy: swap the read clause for an attacker one.
	r.pkg.Policy.Rules[0].AnyOf = []Clause{{attrBuffer}}
	if err := r.pkg.VerifyIntegrity(); err == nil {
		t.Error("policy tampering undetected")
	}
	ring := NewKeyring()
	ring.Add(r.traffic.Grant(attrBuffer))
	if _, _, err := r.pkg.Open(ring, Context{}, [32]byte{5}); err == nil {
		t.Error("tampered package opened")
	}
}

// A relay must not be able to widen the owner's context constraint: each
// of the three context fields is under the owner signature.
func TestContextRuleIsSigned(t *testing.T) {
	authority, _ := NewAuthority("traffic", detRand(1))
	owner, _ := cryptoprim.GenerateKey(detRand(2))
	lookup := func(id AttributeID) (AttrKey, bool) { return authority.Grant(id), true }
	ring := NewKeyring()
	ring.Add(authority.Grant(attrHead))
	area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100})
	wide := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000})
	// Each request breaks exactly the constraint its relay then relaxes.
	inside, outside := geo.Point{X: 50, Y: 50}, geo.Point{X: 500, Y: 500}
	for name, tc := range map[string]struct {
		ctx   Context
		relax func(c *ContextRule)
	}{
		"emergency cleared": {Context{Pos: inside, Speed: 10}, func(c *ContextRule) { c.EmergencyOnly = false }},
		"max speed raised":  {Context{Pos: inside, Speed: 25, Emergency: true}, func(c *ContextRule) { c.MaxSpeed = 90 }},
		"max speed dropped": {Context{Pos: inside, Speed: 25, Emergency: true}, func(c *ContextRule) { c.MaxSpeed = 0 }},
		"area dropped":      {Context{Pos: outside, Speed: 10, Emergency: true}, func(c *ContextRule) { c.Area = nil }},
		"area widened":      {Context{Pos: outside, Speed: 10, Emergency: true}, func(c *ContextRule) { c.Area = &wide }},
	} {
		ctx, relax := tc.ctx, tc.relax
		policy := Policy{Resource: "r", Rules: []Rule{{
			Action:  Read,
			AnyOf:   []Clause{{attrHead}},
			Context: ContextRule{Area: &area, MaxSpeed: 15, EmergencyOnly: true},
		}}}
		pkg, err := Seal("r", []byte("d"), policy, 1, owner, lookup, detRand(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := pkg.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: intact package rejected: %v", name, err)
		}
		if _, d, err := pkg.Open(ring, ctx, [32]byte{1}); err == nil || d.Allowed {
			t.Fatalf("%s: the sealed context rule should deny this request", name)
		}
		relax(&pkg.Policy.Rules[0].Context)
		if err := pkg.VerifyIntegrity(); err == nil {
			t.Errorf("%s: VerifyIntegrity passes on the relaxed rule", name)
		}
		if _, d, err := pkg.Open(ring, ctx, [32]byte{2}); err == nil || d.Allowed {
			t.Errorf("%s: Open enforced the relay's rule, not the owner's", name)
		}
	}
}

// TestSignedBytesAreCanonical: the owner signature binds where each field
// ends, not just the bytes in order. Each forgery keeps the concatenation
// of the signed fields and changes what the package says.
func TestSignedBytesAreCanonical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(p *Package)
		means func(p *Package) bool // the forgery changed the package's meaning
	}{
		{
			"cipher byte moved onto the resource",
			func(p *Package) { p.Resource, p.Cipher = p.Resource+string(p.Cipher[:1]), p.Cipher[1:] },
			func(p *Package) bool { return p.Resource != "road-conditions" },
		},
		{
			"write rule folded into a read clause",
			func(p *Package) {
				read, write := p.Policy.Rules[0], p.Policy.Rules[1]
				folded := string(write.Action) + string(write.Context.appendSigned(nil)) + clauseKey(write.AnyOf[0])
				read.AnyOf = append(read.AnyOf[:len(read.AnyOf):len(read.AnyOf)], Clause{AttributeID(folded)})
				p.Policy.Rules = []Rule{read}
			},
			func(p *Package) bool { return !Evaluate(&p.Policy, AttrSet{attrHead: 0}, Write, Context{}).Allowed },
		},
	} {
		r := newSealRig(t)
		if b := r.pkg.signedBytes(); len(b) != cap(b) {
			t.Errorf("signed bytes: len %d in a buffer of %d", len(b), cap(b))
		}
		tc.forge(r.pkg)
		if !tc.means(r.pkg) {
			t.Fatalf("%s: the forgery changed nothing", tc.name)
		}
		if err := r.pkg.VerifyIntegrity(); err == nil {
			t.Errorf("%s: VerifyIntegrity passes on the forged package", tc.name)
		}
	}
}

// The keyring remembers a package it has verified; that must not carry
// over to different bytes under the same signature.
func TestTamperAfterOpenIsCaught(t *testing.T) {
	r := newSealRig(t)
	ring := NewKeyring()
	ring.Add(r.traffic.Grant(attrHead))
	ring.Add(r.city.Grant(attrMed))
	ring.Add(r.traffic.Grant(attrBuffer))
	for i := 0; i < 2; i++ { // verified, then remembered
		if _, _, err := r.pkg.Open(ring, Context{}, [32]byte{1}); err != nil {
			t.Fatalf("open %d of the intact package: %v", i, err)
		}
	}
	for name, tamper := range map[string]func(p *Package){
		"ciphertext": func(p *Package) { p.Cipher[3] ^= 1 },
		"policy":     func(p *Package) { p.Policy.Rules[0].AnyOf = []Clause{{attrBuffer}} },
		"resource":   func(p *Package) { p.Resource = "road-conditionz" },
		"signature":  func(p *Package) { p.OwnerSig[0] ^= 1 },
		"owner":      func(p *Package) { p.OwnerPub, p.OwnerSig = r.owner.Public[:31], p.OwnerSig[:63] },
	} {
		bad := *r.pkg
		bad.Cipher = append([]byte(nil), r.pkg.Cipher...)
		bad.OwnerSig = append([]byte(nil), r.pkg.OwnerSig...)
		bad.Policy.Rules = append([]Rule(nil), r.pkg.Policy.Rules...)
		tamper(&bad)
		if _, d, err := bad.Open(ring, Context{}, [32]byte{2}); err == nil || d.Allowed {
			t.Errorf("tampered %s opened by a keyring that had opened the original", name)
		}
	}
	if _, _, err := r.pkg.Open(ring, Context{}, [32]byte{3}); err != nil {
		t.Errorf("the original no longer opens: %v", err)
	}
}

func TestAuditChain(t *testing.T) {
	r := newSealRig(t)
	ring := NewKeyring()
	ring.Add(r.traffic.Grant(attrHead))
	ring.Add(r.city.Grant(attrMed))
	for i := 0; i < 5; i++ {
		if _, _, err := r.pkg.Open(ring, Context{Now: int64(i)}, [32]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.pkg.Audit) != 5 {
		t.Fatalf("audit entries = %d", len(r.pkg.Audit))
	}
	if idx := r.pkg.VerifyAudit(); idx != -1 {
		t.Errorf("intact audit reported tampered at %d", idx)
	}
	// Tamper with a middle entry.
	r.pkg.Audit[2].Allowed = false
	if idx := r.pkg.VerifyAudit(); idx != 2 {
		t.Errorf("tamper detected at %d, want 2", idx)
	}
}

func TestSealValidation(t *testing.T) {
	owner, _ := cryptoprim.GenerateKey(detRand(1))
	auth, _ := NewAuthority("traffic", detRand(2))
	lookup := func(id AttributeID) (AttrKey, bool) { return auth.Grant(id), true }
	if _, err := Seal("r", []byte("d"), Policy{}, 1, owner, lookup, detRand(3)); err == nil {
		t.Error("invalid policy accepted")
	}
	p := basicPolicy()
	if _, err := Seal("other", []byte("d"), p, 1, owner, lookup, detRand(3)); err == nil {
		t.Error("resource mismatch accepted")
	}
	// Policy with only write rules has nothing to wrap.
	wp := Policy{Resource: "r", Rules: []Rule{{Action: Write, AnyOf: []Clause{{attrHead}}}}}
	if _, err := Seal("r", []byte("d"), wp, 1, owner, lookup, detRand(3)); err == nil {
		t.Error("write-only policy accepted for sealing")
	}
	// Unknown attribute in clause.
	badLookup := func(id AttributeID) (AttrKey, bool) { return AttrKey{}, false }
	if _, err := Seal("road-conditions", []byte("d"), basicPolicy(), 1, owner, badLookup, detRand(3)); err == nil {
		t.Error("unresolvable clause accepted")
	}
}

func TestEmergencyEscalationLatencyShape(t *testing.T) {
	// E6's qualitative check: emergency escalation is just one more rule
	// evaluation — decision work must stay within a small constant.
	area := geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100})
	p := Policy{
		Resource: "r",
		Rules: []Rule{
			{Action: Read, AnyOf: []Clause{{attrHead, attrMed}}, Context: ContextRule{Area: &area}},
			{Action: Read, AnyOf: []Clause{{attrBuffer}}, Context: ContextRule{EmergencyOnly: true}},
		},
	}
	attrs := AttrSet{attrBuffer: 0}
	d := Evaluate(&p, attrs, Read, Context{Emergency: true, Pos: geo.Point{X: 500, Y: 0}})
	if !d.Allowed {
		t.Fatal("emergency access denied")
	}
	if d.ClausesChecked > 2 || d.AttrsChecked > 3 {
		t.Errorf("escalation work: clauses=%d attrs=%d", d.ClausesChecked, d.AttrsChecked)
	}
}
