package access

import (
	"testing"

	"vcloud/internal/cryptoprim"
)

// BenchmarkPackageOpenRepeat: one subject reopening one sealed 2 KB
// package — integrity check, policy evaluation, key unwrap, AES-GCM, audit
// entry.
func BenchmarkPackageOpenRepeat(b *testing.B) {
	rng := detRand(1)
	authority, _ := NewAuthority("city", rng)
	owner, _ := cryptoprim.GenerateKey(rng)
	data := make([]byte, 2048)
	rng.Read(data)
	policy := Policy{Resource: "tile", Rules: []Rule{{Action: Read, AnyOf: []Clause{{attrPolice}, {attrHead, attrMed}}}}}
	lookup := func(id AttributeID) (AttrKey, bool) { return authority.Grant(id), true }
	pkg, err := Seal("tile", data, policy, 1, owner, lookup, rng)
	if err != nil {
		b.Fatal(err)
	}
	ring := NewKeyring()
	ring.Add(authority.Grant(attrHead))
	ring.Add(authority.Grant(attrMed))
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pkg.Open(ring, Context{Now: int64(i)}, [32]byte{1}); err != nil {
			b.Fatal(err)
		}
	}
}
