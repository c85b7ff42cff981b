package chaos

import (
	"math"
	"strings"
	"testing"
	"time"
)

// shortCfg is the CI-sized soak: 60 simulated seconds of storm.
func shortCfg(seed int64) SoakConfig {
	return SoakConfig{
		Seed:        seed,
		Vehicles:    16,
		ByzFraction: 0.2,
		Duration:    60 * time.Second,
	}
}

func TestSoakShortHoldsInvariants(t *testing.T) {
	rep, err := Soak(shortCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.Submitted == 0 {
		t.Fatal("soak submitted nothing")
	}
	if rep.Completed == 0 {
		t.Error("soak completed nothing: storm too strong or scheduler broken")
	}
	if rep.FaultsInjected == 0 {
		t.Error("no faults injected: not a soak")
	}
	if rep.Checks == 0 {
		t.Error("invariant checker never ran")
	}
	if rep.Wrong > 0 {
		t.Errorf("%d wrong results slipped through voting (correct=%d unchecked=%d)",
			rep.Wrong, rep.Correct, rep.Unchecked)
	}
	t.Logf("submitted=%d completed=%d failed=%d refused=%d correct=%d unchecked=%d faults=%d failovers=%d checksum=%x",
		rep.Submitted, rep.Completed, rep.Failed, rep.Refused, rep.Correct, rep.Unchecked,
		rep.FaultsInjected, rep.Failovers, rep.Checksum)
}

// TestSoakHonestWorkers: a zero ByzFraction means zero liars — the
// storm runs over honest workers, so nothing can be voted in wrong and
// there is nobody for a byz-flip to toggle.
func TestSoakHonestWorkers(t *testing.T) {
	cfg := shortCfg(1)
	cfg.ByzFraction = 0
	rep, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.Completed == 0 || rep.Wrong != 0 {
		t.Errorf("completed=%d wrong=%d, want work done and none of it wrong", rep.Completed, rep.Wrong)
	}
	for _, line := range rep.FaultLog {
		if strings.Contains(line, "byz-flip") {
			t.Errorf("byz-flip fault with no Byzantine member: %s", line)
		}
	}
}

func TestSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single soak is enough")
	}
	a, err := Soak(shortCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(shortCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("same seed, different checksums: %x vs %x", a.Checksum, b.Checksum)
	}
	if a.Submitted != b.Submitted || a.Completed != b.Completed || a.Failed != b.Failed ||
		a.FaultsInjected != b.FaultsInjected {
		t.Errorf("same seed, different counts: %+v vs %+v", a, b)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs diverge in length: %d vs %d", len(a.Events), len(b.Events))
	}
	c, err := Soak(shortCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Checksum == a.Checksum {
		t.Error("different seeds produced identical event logs: storm is not seeded")
	}
}

// splitCfg is the CI-sized split-brain soak: fencing on, controller
// isolations in the storm mix.
func splitCfg(seed int64) SoakConfig {
	return SoakConfig{
		Seed:        seed,
		Vehicles:    16,
		ByzFraction: 0.2,
		Duration:    90 * time.Second,
		SplitBrain:  true,
	}
}

func TestSplitBrainSoakShort(t *testing.T) {
	rep, err := Soak(splitCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.SplitBrains == 0 {
		t.Error("no split-brain isolations injected: not a split-brain soak")
	}
	if rep.Completed == 0 {
		t.Error("soak completed nothing: storm too strong or scheduler broken")
	}
	t.Logf("submitted=%d completed=%d failed=%d splits=%d epochs=%d abdications=%d merges=%d adopted=%d deduped=%d stale=%d checksum=%x",
		rep.Submitted, rep.Completed, rep.Failed, rep.SplitBrains, rep.Epochs,
		rep.Abdications, rep.Merges, rep.Adopted, rep.Deduped, rep.StaleRejected, rep.Checksum)
}

// TestSplitBrainSoakSeeds is the acceptance sweep: five seeds of
// split-brain storm, zero invariant violations, and at least one run
// that actually split (epoch advanced past the initial claim).
func TestSplitBrainSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestSplitBrainSoakShort covers one seed")
	}
	var splits, epochBumps int
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := Soak(splitCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: invariant violation: %s", seed, v)
		}
		splits += rep.SplitBrains
		if rep.Epochs > 1 {
			epochBumps++
		}
		t.Logf("seed %d: splits=%d epochs=%d abdications=%d merges=%d adopted=%d deduped=%d",
			seed, rep.SplitBrains, rep.Epochs, rep.Abdications, rep.Merges, rep.Adopted, rep.Deduped)
	}
	if splits == 0 {
		t.Error("no seed injected a split-brain isolation")
	}
	if epochBumps == 0 {
		t.Error("no seed ever advanced the epoch: isolations never caused a promotion")
	}
}

func TestSplitBrainSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single soak is enough")
	}
	a, err := Soak(splitCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(splitCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("same seed, different checksums: %x vs %x", a.Checksum, b.Checksum)
	}
}

func TestSoakConfigValidate(t *testing.T) {
	bad := []SoakConfig{
		{Seed: 1, ByzFraction: 1.5},
		{Seed: 1, ByzFraction: math.NaN()},
		{Seed: 1, Vehicles: -1},
		{Seed: 1, Duration: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := Soak(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// storageCfg is the CI-sized churn-storm soak over the data service.
func storageCfg(seed int64, mode string) SoakConfig {
	return SoakConfig{
		Seed:        seed,
		Vehicles:    16,
		ByzFraction: 0.2,
		Duration:    90 * time.Second,
		Storage:     mode,
	}
}

func TestStorageSoakShort(t *testing.T) {
	for _, mode := range []string{"replicated", "ec"} {
		t.Run(mode, func(t *testing.T) {
			rep, err := Soak(storageCfg(1, mode))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("invariant violation: %s", v)
			}
			if rep.StorageWrites == 0 || rep.StorageAcked == 0 {
				t.Errorf("storage workload idle: writes=%d acked=%d", rep.StorageWrites, rep.StorageAcked)
			}
			if rep.StorageReadsOK == 0 {
				t.Error("no storage read ever served")
			}
			if rep.Departures == 0 {
				t.Error("no permanent departures injected: not a churn storm")
			}
			t.Logf("writes=%d acked=%d reads=%d readsOK=%d lost=%d repaired=%d departures=%d checksum=%x",
				rep.StorageWrites, rep.StorageAcked, rep.StorageReads, rep.StorageReadsOK,
				rep.StorageLost, rep.StorageRepaired, rep.Departures, rep.Checksum)
		})
	}
}

// TestStorageSoakSeeds is the acceptance sweep: five seeds of churn
// storm per backend, zero storage-invariant violations.
func TestStorageSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestStorageSoakShort covers one seed")
	}
	for _, mode := range []string{"replicated", "ec"} {
		var departures int
		for seed := int64(1); seed <= 5; seed++ {
			rep, err := Soak(storageCfg(seed, mode))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s seed %d: invariant violation: %s", mode, seed, v)
			}
			departures += rep.Departures
			t.Logf("%s seed %d: acked=%d readsOK=%d lost=%d repaired=%d departures=%d",
				mode, seed, rep.StorageAcked, rep.StorageReadsOK, rep.StorageLost,
				rep.StorageRepaired, rep.Departures)
		}
		if departures == 0 {
			t.Errorf("%s: no seed injected a departure", mode)
		}
	}
}

func TestStorageSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single soak is enough")
	}
	a, err := Soak(storageCfg(4, "ec"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(storageCfg(4, "ec"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("same seed, different checksums: %x vs %x", a.Checksum, b.Checksum)
	}
	if a.StorageAcked != b.StorageAcked || a.StorageLost != b.StorageLost || a.Departures != b.Departures {
		t.Errorf("same seed, different storage counts: %+v vs %+v", a, b)
	}
}
