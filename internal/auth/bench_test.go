package auth

import (
	"fmt"
	"testing"
	"time"

	"vcloud/internal/pki"
)

// BenchmarkHandshake times one mutual handshake between two nodes under
// each arm of Fig. 5, against a CRL of 3000 pseudonyms (300 revoked
// vehicles with the rig's pools of ten) and as many enrolled group
// members. Host time per handshake; the virtual cost is E5's business.
func BenchmarkHandshake(b *testing.B) {
	r := newRig(b, 2)
	for i := 0; i < 300; i++ {
		id := pki.VehicleIdentity(fmt.Sprintf("rev-%d", i))
		if _, err := r.ta.Enroll(id); err != nil {
			b.Fatal(err)
		}
		if err := r.ta.RevokeVehicle(id); err != nil {
			b.Fatal(err)
		}
	}
	tags := r.ta.HybridRevocationTags(32)
	for _, arm := range []struct {
		name   string
		scheme Scheme
		mode   CRLMode
	}{
		{"pseudonym-linear", Pseudonym, CRLLinear},
		{"pseudonym-bloom", Pseudonym, CRLBloom},
		{"group", Group, CRLLinear},
		{"hybrid", Hybrid, CRLLinear},
	} {
		b.Run(arm.name, func(b *testing.B) {
			anchors := r.anchors(arm.mode)
			anchors.HybridRevoked = func(id [32]byte) bool {
				_, hit := tags[id]
				return hit
			}
			met := &Metrics{}
			a, err := New(r.nodes[0], r.enrs[0], anchors, arm.scheme, CostModel{}, met)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := New(r.nodes[1], r.enrs[1], anchors, arm.scheme, CostModel{}, met); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Authenticate(1, nil); err != nil {
					b.Fatal(err)
				}
				if err := r.k.Run(r.k.Now() + 100*time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
			if got := met.Successes.Value(); got != uint64(b.N) {
				b.Fatalf("%d of %d handshakes succeeded", got, b.N)
			}
		})
	}
}
