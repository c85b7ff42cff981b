// Package allowdir regression-tests //vcloudlint:allow suppression for
// nogoroutine: pool mirrors fanout.Each, the sanctioned fan-out/fan-in
// pool that runs independent units in parallel and carries
// reasoned directives at each concurrency site. spawnElse has no directive
// and stays flagged.
package allowdir

import "sync"

func pool(n int, fn func(int)) {
	//vcloudlint:allow nogoroutine fan-out pool joins before results are folded
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//vcloudlint:allow nogoroutine pool worker runs an independent kernel
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

func spawnElse() {
	go func() {}() // want `go statement in kernel-driven code`
}
