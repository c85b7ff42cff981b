package vcloud

import (
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/auth"
	"vcloud/internal/geo"
	"vcloud/internal/pki"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/vnet"
)

// TestSecureControllerIgnoresForgedJoin is a white-box drill: a join
// message with a spoofed origin that never completed a handshake must
// not enter the membership, even though the frame itself is well-formed.
func TestSecureControllerIgnoresForgedJoin(t *testing.T) {
	net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 2, AisleLenM: 100, AisleGapM: 40})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.New(scenario.Spec{Seed: 2, Network: net, NumVehicles: 4, Parked: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRSU(geo.Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	ta, err := pki.New("TA", rand.New(rand.NewSource(5)), pki.Config{PoolSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	stats := &Stats{}
	met := &auth.Metrics{}
	sd, err := DeploySecure(s, Stationary, DeployConfig{}, Security{TA: ta, Metrics: met}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	gate := sd.Controllers[0]
	before := gate.NumMembers()
	if before == 0 {
		t.Fatal("no legitimate members joined")
	}

	// Forge: vehicle 1's radio transmits a join whose Origin claims an
	// address that never authenticated (9999).
	node, ok := sd.MemberNode(1)
	if !ok {
		t.Fatal("no node for vehicle 1")
	}
	forged := vnet.Message{
		Origin: vnet.Addr(9999), Seq: 77, Dest: gate.Addr(),
		Kind: kindJoin, TTL: 1, Size: 128,
		Payload: joinMsg{CPU: 1e9},
	}
	node.SendTo(gate.Addr(), forged)
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range gate.Members() {
		if m == vnet.Addr(9999) {
			t.Fatal("forged join admitted")
		}
	}
	if gate.NumMembers() < before {
		t.Error("legitimate members lost")
	}
}
