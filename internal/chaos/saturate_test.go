package chaos

import (
	"testing"
	"time"
)

// satCfg is the CI-sized saturation soak: the congestion workload ramps
// over 90 simulated seconds of storm.
func satCfg(seed int64) SoakConfig {
	return SoakConfig{
		Seed:        seed,
		Vehicles:    16,
		ByzFraction: 0.2,
		Duration:    90 * time.Second,
		Saturate:    true,
	}
}

func TestSaturationSoakShort(t *testing.T) {
	rep, err := Soak(satCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.SatSubmitted == 0 {
		t.Fatal("congestion workload idle: nothing submitted")
	}
	if rep.SatCompleted == 0 {
		t.Error("nothing completed under saturation: governor or tiers broken")
	}
	if rep.UplinkSent == 0 {
		t.Error("no traffic crossed the contended uplink")
	}
	t.Logf("sat: submitted=%d required=%d completed=%d failed=%d shed=%d admission=%d backpressured=%d",
		rep.SatSubmitted, rep.SatRequired, rep.SatCompleted, rep.SatFailed,
		rep.SatShed, rep.SatAdmission, rep.SatBackpressured)
	t.Logf("placement: vehicle=%d cloud=%d switches=%d bursts=%d outages=%d",
		rep.SatPlacedVehicle, rep.SatPlacedCloud, rep.Cloud.TierSwitches.Value(), rep.SatLossBursts, rep.SatOutages)
	t.Logf("uplink: sent=%d delivered=%d lost=%d dropped=%d checksum=%x",
		rep.UplinkSent, rep.UplinkDelivered, rep.UplinkLost, rep.UplinkDropped, rep.Checksum)
}

// TestSaturationSoakSeeds is the acceptance sweep: three seeds of
// ramped load plus loss-burst/outage storms, zero violations of the
// saturation invariants (bounded queues, optional-only shedding,
// physical bandwidth estimates).
func TestSaturationSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestSaturationSoakShort covers one seed")
	}
	var storms, overload int
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := Soak(satCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: invariant violation: %s", seed, v)
		}
		if rep.SatSubmitted == 0 {
			t.Errorf("seed %d: congestion workload idle", seed)
		}
		storms += rep.SatLossBursts + rep.SatOutages
		overload += rep.SatShed + rep.SatBackpressured + rep.SatAdmission
		t.Logf("seed %d: submitted=%d completed=%d shed=%d admission=%d backpressured=%d vehicle=%d cloud=%d bursts=%d outages=%d",
			seed, rep.SatSubmitted, rep.SatCompleted, rep.SatShed, rep.SatAdmission,
			rep.SatBackpressured, rep.SatPlacedVehicle, rep.SatPlacedCloud,
			rep.SatLossBursts, rep.SatOutages)
	}
	if storms == 0 {
		t.Error("no seed fired a saturation storm: the loss-burst/outage branch never ran")
	}
	if overload == 0 {
		t.Error("no seed triggered overload control: the ramp never saturated anything")
	}
}

func TestSaturationSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single soak is enough")
	}
	a, err := Soak(satCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(satCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("same seed, different checksums: %x vs %x", a.Checksum, b.Checksum)
	}
	if a.SatSubmitted != b.SatSubmitted || a.SatCompleted != b.SatCompleted ||
		a.SatShed != b.SatShed || a.SatAdmission != b.SatAdmission ||
		a.SatBackpressured != b.SatBackpressured ||
		a.SatPlacedVehicle != b.SatPlacedVehicle || a.SatPlacedCloud != b.SatPlacedCloud ||
		a.UplinkSent != b.UplinkSent || a.UplinkDropped != b.UplinkDropped {
		t.Errorf("same seed, different saturation counts:\n%+v\nvs\n%+v", a, b)
	}
	c, err := Soak(satCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.Checksum == a.Checksum {
		t.Error("different seeds produced identical event logs: saturation storm is not seeded")
	}
}
