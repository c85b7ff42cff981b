package chaos

import (
	"testing"
	"time"
)

// dagCfg is the CI-sized DAG soak: two simulated minutes so multi-stage
// jobs have room to finish between storm fronts.
func dagCfg(seed int64) SoakConfig {
	return SoakConfig{
		Seed:        seed,
		Vehicles:    16,
		ByzFraction: 0.2,
		Duration:    2 * time.Minute,
		DAG:         true,
	}
}

func TestDAGSoakShort(t *testing.T) {
	rep, err := Soak(dagCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.JobsSubmitted == 0 {
		t.Fatal("DAG workload idle: no job ever submitted")
	}
	if rep.JobsCompleted+int(rep.JobsResumed) == 0 {
		t.Error("no job completed or survived a failover: engine or storm broken")
	}
	if rep.JobsCompleted+rep.JobsFailed > rep.JobsSubmitted {
		t.Errorf("job accounting: completed %d + failed %d > submitted %d",
			rep.JobsCompleted, rep.JobsFailed, rep.JobsSubmitted)
	}
	t.Logf("jobs: submitted=%d completed=%d partial=%d failed=%d refused=%d resumed=%d", rep.JobsSubmitted,
		rep.JobsCompleted, rep.JobsPartial, rep.JobsFailed, rep.JobsRefused, rep.JobsResumed)
	t.Logf("stages: retries=%d relays=%d handoffs=%d member-kills=%d checksum=%x",
		rep.StageRetries, rep.StageRelays, rep.StageHandoffs, rep.MemberKills, rep.Checksum)
}

// TestDAGSoakSeeds is the acceptance sweep: five seeds of storm over
// the DAG workload, zero violations of the stage-level invariants (no
// double-applied outcome, ancestor completeness, replica budget,
// exactly-once callbacks).
func TestDAGSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestDAGSoakShort covers one seed")
	}
	var kills, handoffs int
	for seed := int64(1); seed <= 5; seed++ {
		rep, err := Soak(dagCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: invariant violation: %s", seed, v)
		}
		if rep.JobsSubmitted == 0 {
			t.Errorf("seed %d: no job submitted", seed)
		}
		kills += rep.MemberKills
		handoffs += int(rep.StageHandoffs)
		t.Logf("seed %d: submitted=%d completed=%d failed=%d resumed=%d retries=%d relays=%d kills=%d",
			seed, rep.JobsSubmitted, rep.JobsCompleted, rep.JobsFailed, rep.JobsResumed,
			rep.StageRetries, rep.StageRelays, rep.MemberKills)
	}
	if kills == 0 {
		t.Error("no seed killed a member: the kill-member storm branch never fired")
	}
	if handoffs == 0 {
		t.Error("no stage output ever flowed member-to-member")
	}
}

func TestDAGSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: single soak is enough")
	}
	a, err := Soak(dagCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(dagCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Fatalf("same seed, different checksums: %x vs %x", a.Checksum, b.Checksum)
	}
	if a.JobsSubmitted != b.JobsSubmitted || a.JobsCompleted != b.JobsCompleted ||
		a.JobsFailed != b.JobsFailed || a.JobsResumed != b.JobsResumed ||
		a.StageRetries != b.StageRetries || a.StageRelays != b.StageRelays ||
		a.MemberKills != b.MemberKills {
		t.Errorf("same seed, different DAG counts:\n%+v\nvs\n%+v", a, b)
	}
}
