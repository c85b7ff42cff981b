package chaos

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"vcloud/internal/faults"
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
		rep.FaultsInjected, rep.Cloud.Failovers.Value(), rep.Checksum)
}

// TestSoakHonestWorkers: a zero ByzFraction means zero liars — the
// storm runs over honest workers, so nothing can be voted in wrong and
// there is nobody for a lie or honest event to flip.
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
		if f := strings.Fields(line); f[1] == string(faults.Lie) || f[1] == string(faults.Honest) {
			t.Errorf("Byzantine flip with no Byzantine member: %s", line)
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

// TestPlainSoakReplaysItsEventLog runs the plain soak `vcloudsim -soak
// -seed 7 -vehicles 14 -duration 300` prints four times and requires one
// event log. Members used to sum their queued work in map order: float
// addition is not associative, so a task could start a nanosecond apart
// between runs of one seed and same-instant outcomes reordered.
func TestPlainSoakReplaysItsEventLog(t *testing.T) {
	cfg := SoakConfig{Seed: 7, Vehicles: 14, ByzFraction: 0.2, Duration: 300 * time.Second}
	first, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 4; run++ {
		rep, err := Soak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.Events, first.Events) {
			t.Fatalf("run %d: event log differs from run 1 (checksums %x vs %x)", run, rep.Checksum, first.Checksum)
		}
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
		rep.Cloud.Abdications.Value(), rep.Cloud.Merges.Value(), rep.Cloud.Adopted.Value(),
		rep.Cloud.Deduped.Value(), rep.Cloud.StaleRejected.Value(), rep.Checksum)
}

// TestRefusedStreakMatchesEventLog: the availability measurement agrees
// with the checksummed event log, where each refusal is one line. The
// longest run of consecutive refused submission numbers, the time of its
// first refusal, and its length on the submission beat must all match.
func TestRefusedStreakMatchesEventLog(t *testing.T) {
	rep, err := Soak(splitCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	best, run, prev := 0, 0, -2
	var from, bestFrom string
	for _, ev := range rep.Events {
		var seq int
		var at string
		if n, _ := fmt.Sscanf(ev, "task %d refused at %s", &seq, &at); n != 2 {
			continue
		}
		if seq == prev+1 {
			run++
		} else {
			run, from = 1, at
		}
		prev = seq
		if run > best {
			best, bestFrom = run, from
		}
	}
	if rep.Refused == 0 {
		t.Fatal("no submission refused: the seed no longer exercises the measurement")
	}
	if rep.RefusedStreak != best || rep.RefusedFrom.String() != bestFrom || rep.RefusedFor != time.Duration(best)*soakTaskEvery {
		t.Errorf("streak %d from %v for %v; the event log says %d from %s for %v",
			rep.RefusedStreak, rep.RefusedFrom, rep.RefusedFor, best, bestFrom, time.Duration(best)*soakTaskEvery)
	}
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
			seed, rep.SplitBrains, rep.Epochs, rep.Cloud.Abdications.Value(), rep.Cloud.Merges.Value(),
			rep.Cloud.Adopted.Value(), rep.Cloud.Deduped.Value())
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

// TestStorageSoakShort: both backends move real 1 KB payloads under the
// storm. Besides durability and session order, a served read must return
// exactly the bytes its version's write stored (aliased erasure writes,
// join-free reads and released stale fragments all sit under it). CI runs
// it under the race detector with the rest of the suite.
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

// TestSoakFaultLogIsAPlan runs a short soak in every mode and reads the
// storm's whole fault log back with faults.Parse, heal lines included:
// its plan lines render back line for line, there are FaultsInjected of
// them, and the per-kind counts are the report's storm counters.
func TestSoakFaultLogIsAPlan(t *testing.T) {
	for _, mode := range []func(*SoakConfig){
		func(*SoakConfig) {},
		func(c *SoakConfig) { c.SplitBrain = true },
		func(c *SoakConfig) { c.Storage = "replicated" },
		func(c *SoakConfig) { c.Storage = "ec" },
		func(c *SoakConfig) { c.DAG = true },
		func(c *SoakConfig) { c.Saturate = true },
	} {
		cfg := shortCfg(7)
		mode(&cfg)
		rep, err := Soak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.Parse(strings.Join(rep.FaultLog, "\n"))
		if err != nil {
			t.Fatalf("%+v: fault log does not parse: %v", cfg, err)
		}
		if len(plan) == 0 {
			t.Fatalf("%+v: the storm applied no fault", cfg)
		}
		var lines []string
		for _, l := range rep.FaultLog {
			if !strings.HasPrefix(l, "#") {
				lines = append(lines, l)
			}
		}
		if got, want := plan.String(), strings.Join(lines, "\n"); got != want {
			t.Errorf("%+v: fault log reads back as\n%s\nwant\n%s", cfg, got, want)
		}
		kinds := make(map[faults.Kind]int)
		departures := 0
		for _, e := range plan {
			kinds[e.Kind]++
			if e.Kind == faults.Crash && e.Dur == 0 {
				departures++
			}
		}
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"FaultsInjected", rep.FaultsInjected, len(plan)},
			{"SplitBrains", rep.SplitBrains, kinds[faults.Isolate]},
			{"MemberKills", rep.MemberKills, kinds[faults.KillMember]},
			{"SatLossBursts", rep.SatLossBursts, kinds[faults.UplinkLoss]},
			{"SatOutages", rep.SatOutages, kinds[faults.UplinkDown]},
			{"Departures", rep.Departures, departures},
		} {
			if c.got != c.want {
				t.Errorf("%+v: %s = %d, the fault log holds %d", cfg, c.name, c.got, c.want)
			}
		}
	}
}
