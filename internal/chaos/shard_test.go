package chaos

import (
	"strings"
	"testing"
)

// shardSoakCfg is the CI-sized sharded storm soak: three episodes of
// churn plus a roaming outage, each checked sharded-vs-serial.
func shardSoakCfg(seed int64) ShardSoakConfig {
	return ShardSoakConfig{Seed: seed, Shards: 4, Episodes: 3, Vehicles: 96, Ticks: 48}
}

// TestShardSoakShort runs the sharded storm soak under the race detector
// in CI's whole-suite race step. The shard workers are one of the two
// sanctioned goroutine sites (fanout.Each is the other), so this is the
// test that would catch a data race in the cross-shard protocol.
func TestShardSoakShort(t *testing.T) {
	rep, err := RunShardSoak(shardSoakCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.CrossEvents == 0 {
		t.Error("no cross-shard events: borders never exercised")
	}
	if rep.Handoffs == 0 {
		t.Error("no handoffs: vehicles never crossed a shard boundary")
	}
	if rep.Delivered == 0 {
		t.Error("no beacons delivered: storm silenced the whole soak")
	}
	t.Logf("shard soak: episodes=%d shards=%d events=%d cross=%d handoffs=%d delivered=%d checksum=%x",
		rep.Episodes, rep.Shards, rep.Events, rep.CrossEvents, rep.Handoffs, rep.Delivered, rep.Checksum)
}

// TestShardSoakSeeds is the acceptance sweep: three seeds, and the
// soak's checksum must reproduce bit-for-bit under an equal seed.
func TestShardSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestShardSoakShort covers one seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := RunShardSoak(shardSoakCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: invariant violation: %s", seed, v)
		}
		again, err := RunShardSoak(shardSoakCfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		if again.Checksum != rep.Checksum {
			t.Errorf("seed %d: checksum not reproducible: %x then %x", seed, rep.Checksum, again.Checksum)
		}
	}
}

// TestShardSoakRejectsBadConfig checks the error paths.
func TestShardSoakRejectsBadConfig(t *testing.T) {
	if _, err := RunShardSoak(ShardSoakConfig{Shards: 1, Episodes: 1}); err == nil {
		t.Error("1-shard soak accepted; it would compare serial against itself")
	}
	if _, err := RunShardSoak(ShardSoakConfig{Shards: 2, Vehicles: 4}); err == nil {
		t.Error("tiny fleet accepted")
	}
	// A count far past what the storm world's cells can hold is refused
	// by Validate, before any kernel or worker is built for it.
	if err := (ShardSoakConfig{Shards: 1 << 40}).Validate(); err == nil || !strings.Contains(err.Error(), "halo") {
		t.Errorf("2^40 shards: Validate() = %v, want a refusal naming the ghost halo", err)
	}
}
