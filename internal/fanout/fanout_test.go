package fanout

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestEachCoversAllIndices runs more items than workers and checks every
// index runs exactly once.
func TestEachCoversAllIndices(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 2, 7, 200} {
		hits := make([]int, n)
		err := Each(workers, n, func(i int) error {
			hits[i]++ // distinct element per call: race-free by construction
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers %d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestEachReturnsLowestFailingIndex: whatever the worker count, Each
// returns what a serial loop returns — the error of the lowest failing
// index — and every index below it has run.
func TestEachReturnsLowestFailingIndex(t *testing.T) {
	const n = 64
	failing := map[int]bool{17: true, 18: true, 40: true}
	for _, workers := range []int{1, 2, 4, 8} {
		ran := make([]bool, n)
		err := Each(workers, n, func(i int) error {
			ran[i] = true
			if failing[i] {
				return fmt.Errorf("unit %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 17" {
			t.Fatalf("workers %d: err = %v, want unit 17", workers, err)
		}
		for i := 0; i <= 17; i++ {
			if !ran[i] {
				t.Errorf("workers %d: index %d below the first failure never ran", workers, i)
			}
		}
		if workers == 1 {
			for i := 18; i < n; i++ {
				if ran[i] {
					t.Errorf("serial loop ran index %d after the failure", i)
				}
			}
		}
	}
}

// TestEachStopsAfterAnError: once a unit fails no new index starts, so a
// failure at index 0 leaves almost all of a long run unstarted (each
// other unit takes a millisecond, and a worker stops after the unit it is
// running).
func TestEachStopsAfterAnError(t *testing.T) {
	const n = 1000
	var ran [n]bool
	err := Each(4, n, func(i int) error {
		ran[i] = true
		if i == 0 {
			return fmt.Errorf("unit 0")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	started := 0
	for _, r := range ran {
		if r {
			started++
		}
	}
	if started > n/2 {
		t.Errorf("%d of %d units started although index 0 failed at once", started, n)
	}
}

// TestEachSerialStartsNoGoroutine: one worker runs every unit on the
// caller's goroutine.
func TestEachSerialStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	err := Each(1, 8, func(i int) error {
		if got := runtime.NumGoroutine(); got != before {
			return fmt.Errorf("unit %d saw %d goroutines, want %d", i, got, before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
