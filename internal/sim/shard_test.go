package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestShardedOneShardMatchesPlainKernel drives the same synthetic workload
// through a plain kernel and a one-shard ShardedKernel and checks the
// dispatch traces are identical: windowing alone must never reorder.
func TestShardedOneShardMatchesPlainKernel(t *testing.T) {
	load := func(k *Kernel, trace *[]string) {
		for i := 0; i < 50; i++ {
			i := i
			at := Time(i%7) * 10 * time.Millisecond
			k.At(at, func() {
				*trace = append(*trace, fmt.Sprintf("%d@%v", i, k.Now()))
				if i%5 == 0 {
					k.After(3*time.Millisecond, func() {
						*trace = append(*trace, fmt.Sprintf("follow%d@%v", i, k.Now()))
					})
				}
			})
		}
	}

	var serial []string
	pk := NewKernel(7)
	load(pk, &serial)
	if err := pk.Run(0); err != nil {
		t.Fatalf("plain run: %v", err)
	}

	var sharded []string
	sk, err := NewShardedKernel(7, 1, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	defer sk.Close()
	load(sk.Shard(0), &sharded)
	if err := sk.Run(0); err != nil {
		t.Fatalf("sharded run: %v", err)
	}

	if len(serial) != len(sharded) {
		t.Fatalf("trace lengths differ: serial %d vs sharded %d", len(serial), len(sharded))
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("trace diverges at %d: serial %q vs sharded %q", i, serial[i], sharded[i])
		}
	}
	if sk.Processed() != pk.Processed() {
		t.Fatalf("processed differ: %d vs %d", sk.Processed(), pk.Processed())
	}
}

// TestShardedCrossMergeOrder injects same-timestamp cross events from
// several source shards and checks they dispatch in the fixed
// (time, source shard, sequence) merge order.
func TestShardedCrossMergeOrder(t *testing.T) {
	const n = 4
	L := 10 * time.Millisecond
	sk, err := NewShardedKernel(1, n, L)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	defer sk.Close()

	var got []string
	record := func(a any) { got = append(got, a.(string)) }
	// Every shard emits two cross events to shard 0, all at the same
	// timestamp, from inside its first window. Emission order within a
	// shard is its seq order; across shards the merge sorts by source id.
	for s := n - 1; s >= 1; s-- {
		s := s
		sk.Shard(s).At(0, func() {
			sk.Inject(s, 0, L, record, fmt.Sprintf("s%d/a", s))
			sk.Inject(s, 0, L, record, fmt.Sprintf("s%d/b", s))
		})
	}
	// Shard 0 needs an event in window one so its clock participates.
	sk.Shard(0).At(0, func() {})
	if err := sk.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}

	want := []string{"s1/a", "s1/b", "s2/a", "s2/b", "s3/a", "s3/b"}
	if len(got) != len(want) {
		t.Fatalf("got %d cross dispatches, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
	if sk.CrossEvents() != uint64(len(want)) {
		t.Fatalf("CrossEvents = %d, want %d", sk.CrossEvents(), len(want))
	}
	if sk.Windows() == 0 {
		t.Fatal("no windows recorded")
	}
}

// TestInjectLookaheadViolationPanics checks the conservative contract is
// enforced: a cross event landing inside the current window is a model bug
// and must not be silently absorbed.
func TestInjectLookaheadViolationPanics(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	defer sk.Close()
	panicked := false
	sk.Shard(0).At(0, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		// Window is [0, 10ms); landing at 5ms violates the lookahead.
		sk.Inject(0, 1, 5*time.Millisecond, func(any) {}, nil)
	})
	sk.Shard(1).At(0, func() {})
	if err := sk.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !panicked {
		t.Fatal("conservative violation did not panic")
	}
}

// TestShardedHorizon checks inclusive horizon semantics and clock
// clamping, matching Kernel.Run.
func TestShardedHorizon(t *testing.T) {
	sk, err := NewShardedKernel(3, 2, 7*time.Millisecond)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	defer sk.Close()
	fired := make([]int, 3)
	horizon := 40 * time.Millisecond
	sk.Shard(0).At(horizon, func() { fired[0]++ })   // exactly at horizon: runs
	sk.Shard(1).At(horizon-1, func() { fired[1]++ }) // before: runs
	sk.Shard(1).At(horizon+1, func() { fired[2]++ }) // past: stays queued
	sk.Shard(0).At(2*horizon, func() { t.Error("far future event ran") })
	if err := sk.Run(horizon); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired[0] != 1 || fired[1] != 1 || fired[2] != 0 {
		t.Fatalf("fired = %v, want [1 1 0]", fired)
	}
	if sk.Now() != horizon {
		t.Fatalf("Now = %v, want %v", sk.Now(), horizon)
	}
	for i := 0; i < sk.NumShards(); i++ {
		if sk.Shard(i).Now() != horizon {
			t.Fatalf("shard %d clock = %v, want %v", i, sk.Shard(i).Now(), horizon)
		}
	}
	if sk.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", sk.Pending())
	}
}

// TestShardedTelemetry sanity-checks the aggregated counters.
func TestShardedTelemetry(t *testing.T) {
	sk, err := NewShardedKernel(9, 4, time.Millisecond)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	defer sk.Close()
	for s := 0; s < 4; s++ {
		s := s
		for i := 0; i < 25; i++ {
			sk.Shard(s).At(Time(i)*time.Millisecond, func() {
				if s < 3 {
					sk.Inject(s, (s+1)%4, sk.Shard(s).Now()+time.Millisecond, func(any) {}, nil)
				}
			})
		}
	}
	if err := sk.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := sk.Processed(); got < 100 {
		t.Fatalf("Processed = %d, want >= 100", got)
	}
	if sk.BusyWall() < sk.CritPathWall() {
		t.Fatalf("BusyWall %v < CritPathWall %v", sk.BusyWall(), sk.CritPathWall())
	}
	if sk.CritPathWall() <= 0 {
		t.Fatal("CritPathWall not accumulated")
	}
}

// TestShardedRunAfterClose checks Close is idempotent and Run refuses to
// restart torn-down workers.
func TestShardedRunAfterClose(t *testing.T) {
	sk, err := NewShardedKernel(1, 2, time.Millisecond)
	if err != nil {
		t.Fatalf("NewShardedKernel: %v", err)
	}
	sk.Shard(0).At(0, func() {})
	if err := sk.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	sk.Close()
	sk.Close()
	if err := sk.Run(0); err != ErrClosed {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// TestSubSeedMatchesNewStream pins the shard kernel seed derivation to the
// NewStream scheme.
func TestSubSeedMatchesNewStream(t *testing.T) {
	k := NewKernel(123)
	a := k.NewStream("shard/2").Int63()
	b := rand.New(rand.NewSource(SubSeed(123, "shard/2"))).Int63()
	if a != b {
		t.Fatalf("SubSeed diverges from NewStream derivation: %d vs %d", a, b)
	}
}

// TestHashUnitRange checks the counter-hash draw stays in [0, 1) and is
// reproducible.
func TestHashUnitRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		u := HashUnit(42, i, i*3)
		if u < 0 || u >= 1 {
			t.Fatalf("HashUnit out of range: %v", u)
		}
		if u != HashUnit(42, i, i*3) {
			t.Fatal("HashUnit not reproducible")
		}
	}
	if HashUnit(1, 2, 3) == HashUnit(1, 3, 2) {
		t.Fatal("HashUnit ignores argument order")
	}
}
