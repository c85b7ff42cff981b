package experiments

import "testing"

// TestParallelTablesMatchSerial is the determinism contract of the
// parallel harness: every experiment's rendered table must be
// byte-identical whether its sweep points run serially or across 8
// workers, and so must the value maps — except E6's raw nanosecond
// samples, the one wall-clock measurement left in any Values map, which
// are checked for key presence only; E6's table prints deterministic
// bands, so it must match too.
func TestParallelTablesMatchSerial(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			serial, err := r.Run(Config{Seed: 42, Quick: true, Parallel: 1})
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			par, err := r.Run(Config{Seed: 42, Quick: true, Parallel: 8})
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if got, want := par.Table.String(), serial.Table.String(); got != want {
				t.Errorf("tables differ between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s", want, got)
			}
			if len(serial.Values) != len(par.Values) {
				t.Fatalf("value count differs: serial %d, parallel %d", len(serial.Values), len(par.Values))
			}
			for k, v := range serial.Values {
				pv, ok := par.Values[k]
				if !ok {
					t.Errorf("parallel run missing value %q", k)
					continue
				}
				if r.ID == "E6" {
					continue // wall-clock measurement: key presence only
				}
				if pv != v {
					t.Errorf("value %q differs: serial %v, parallel %v", k, v, pv)
				}
			}
		})
	}
}

// TestForEachParCoversAllIndices exercises the pool with more items than
// workers and checks every index runs exactly once.
func TestForEachParCoversAllIndices(t *testing.T) {
	const n = 100
	hits := make([]int, n)
	err := forEachPar(Config{Parallel: 7}, n, func(i int) error {
		hits[i]++ // distinct element per call: race-free by construction
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d ran %d times", i, h)
		}
	}
}
