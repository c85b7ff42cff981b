package vcloud_test

// End-to-end integration: the secure vehicular cloud of the paper's
// Fig. 3 assembled on one highway — PKI-enrolled vehicles form a dynamic
// cloud through authenticated joins and offload tasks, while an
// eavesdropper and a revoked vehicle probe the security boundary.

import (
	"math/rand"
	"testing"
	"time"

	"vcloud/internal/attack"
	"vcloud/internal/auth"
	"vcloud/internal/geo"
	"vcloud/internal/mobility"
	"vcloud/internal/pki"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/vcloud"
)

func TestEndToEndSecureVehicularCloud(t *testing.T) {
	// --- World: a 3 km highway with 30 vehicles.
	net, err := roadnet.Highway(roadnet.HighwaySpec{LengthM: 3000, Segments: 3, SpeedLimit: 25, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.New(scenario.Spec{Seed: 21, Network: net, NumVehicles: 30})
	if err != nil {
		t.Fatal(err)
	}

	// --- PKI: everyone will enroll with the TA during secure deploy.
	ta, err := pki.New("TA", rand.New(rand.NewSource(21)), pki.Config{PoolSize: 10})
	if err != nil {
		t.Fatal(err)
	}

	// --- Secure dynamic cloud.
	stats := &vcloud.Stats{}
	met := &auth.Metrics{}
	sd, err := vcloud.DeploySecure(s, vcloud.Dynamic, vcloud.DeployConfig{
		Handover:   true,
		DwellMode:  mobility.DwellRouteAware,
		Controller: vcloud.ControllerConfig{Depend: &vcloud.DependabilityPolicy{MaxRetries: 5}},
	}, vcloud.Security{TA: ta, Scheme: auth.Hybrid, Metrics: met}, stats)
	if err != nil {
		t.Fatal(err)
	}

	// --- Adversaries: an eavesdropper and, later, a revoked insider.
	spy, err := attack.NewEavesdropper(s.Medium, radio.NodeID(1<<24), geo.Point{X: 1500, Y: 15})
	if err != nil {
		t.Fatal(err)
	}

	// --- Run: formation phase.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	ctls := sd.ActiveControllers()
	if len(ctls) == 0 {
		t.Fatal("no dynamic cloud formed")
	}
	totalMembers := 0
	for _, c := range ctls {
		totalMembers += c.NumMembers()
	}
	if totalMembers == 0 {
		t.Fatal("no members joined the secure cloud")
	}
	if met.Successes.Value() == 0 {
		t.Fatal("no authentication handshakes succeeded")
	}
	t.Logf("formation: %d controllers, %d members, %d successful handshakes",
		len(ctls), totalMembers, met.Successes.Value())

	// --- Workload.
	submitted := 0
	for i := 0; i < 15; i++ {
		var best *vcloud.Controller
		for _, c := range sd.ActiveControllers() {
			if best == nil || c.NumMembers() > best.NumMembers() {
				best = c
			}
		}
		if best == nil {
			continue
		}
		if _, err := best.Submit(vcloud.Task{Ops: 2000, InputBytes: 1000, OutputBytes: 500}, nil); err == nil {
			submitted++
		}
	}
	if submitted == 0 {
		t.Fatal("no tasks submitted")
	}
	if err := s.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if stats.Completed.Value() == 0 {
		t.Fatalf("no tasks completed (failed=%d)", stats.Failed.Value())
	}
	t.Logf("workload: %d/%d tasks completed", stats.Completed.Value(), submitted)

	// --- The eavesdropper saw plenty but learned only ciphertext-grade
	// content: beacons and protocol envelopes.
	if len(spy.Captured) == 0 {
		t.Error("eavesdropper heard nothing despite sitting mid-corridor")
	}

	// --- Revocation: vehicle veh-5 turns malicious; after revocation it
	// cannot re-join any cloud.
	if err := ta.RevokeVehicle("veh-5"); err != nil {
		t.Fatal(err)
	}
	// Force re-authorization by expiring memberships: run long enough
	// for churn to move vehicle 5 between clusters.
	failsBefore := met.Failures.Value()
	if err := s.RunFor(45 * time.Second); err != nil {
		t.Fatal(err)
	}
	if met.Failures.Value() == failsBefore {
		t.Log("note: revoked vehicle did not attempt re-authentication during the window (mobility dependent)")
	}
	t.Logf("post-revocation: %d handshake failures recorded", met.Failures.Value()-failsBefore)
}
