package auth

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/cryptoprim"
	"vcloud/internal/pki"
	"vcloud/internal/sim"
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

// BenchmarkBatchVerification regenerates the DESIGN.md batch-verification
// ablation ([21]/[44]): amortized batch checks vs individual signature
// verification, in real CPU time and saved virtual time.
func BenchmarkBatchVerification(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gm, err := cryptoprim.NewGroupManager("g", rng)
	if err != nil {
		b.Fatal(err)
	}
	cred, err := gm.Enroll("m", rng)
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([][]byte, 64)
	sigs := make([]cryptoprim.GroupSig, 64)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		sigs[i] = cred.Sign(msgs[i], uint64(i))
	}
	b.Run("individual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range msgs {
				if !cryptoprim.VerifyGroupSig(gm.PublicKey(), msgs[j], sigs[j]) {
					b.Fatal("verify failed")
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		var saved sim.Time
		for i := 0; i < b.N; i++ {
			k := sim.NewKernel(1)
			bv, err := NewBatchVerifier(k, CostModel{}, DefaultBatchWindow)
			if err != nil {
				b.Fatal(err)
			}
			for j := range msgs {
				bv.Submit(gm.PublicKey(), msgs[j], sigs[j], nil)
			}
			bv.Flush()
			if err := k.Run(0); err != nil {
				b.Fatal(err)
			}
			saved = bv.SavedTime
		}
		b.ReportMetric(float64(saved)/1e6, "saved-virtual-ms")
	})
}
