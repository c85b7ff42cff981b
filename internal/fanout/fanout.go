// Package fanout runs independent units of work on a bounded set of
// goroutines and joins them before returning. It is the one goroutine
// site outside the sharded kernel: the experiment harness spreads whole
// kernels over it, and the trusted authority derives a revoked vehicle's
// certificate serials on it.
//
// Determinism is the caller's half of the contract: unit i may write only
// to slot i of state the caller owns and reads after Each returns, and
// must not draw from a shared stream. Then what Each leaves behind, and
// the error it returns, are the same at any worker count.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Each runs fn(0..n-1) on up to workers goroutines, the caller's own
// among them, and returns once every started call has returned. With
// workers <= 1 (or n <= 1) it is a plain loop and starts no goroutine.
//
// The first error stops new work: indices already started still run to
// completion, and Each returns the error of the lowest failing index.
// Indices are claimed in increasing order, so that index is always
// started and the result is the one a serial loop returns.
func Each(workers, n int, fn func(i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var (
		//vcloudlint:allow nogoroutine claim counter; an error parks it at n so no new index starts
		next atomic.Int64
		//vcloudlint:allow nogoroutine join barrier; the caller reads results only after Wait
		wg sync.WaitGroup
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				next.Store(int64(n))
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		//vcloudlint:allow nogoroutine bounded worker running independent units; joined before Each returns
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
