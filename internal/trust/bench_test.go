package trust

import (
	"testing"
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

var sinkScore float64

// BenchmarkWorkerSetUpdate times what the controller does per vote: one
// piece of Beta-reputation evidence for a known worker, decayed to the
// current virtual time, and the score read that placement then makes.
func BenchmarkWorkerSetUpdate(b *testing.B) {
	var now sim.Time
	ws, err := NewWorkerSet(func() sim.Time { return now }, 30*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 64
	for a := vnet.Addr(0); a < workers; a++ {
		ws.Good(a, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Millisecond
		a := vnet.Addr(i % workers)
		if i%5 == 0 {
			ws.Bad(a, 1)
		} else {
			ws.Good(a, 1)
		}
		sinkScore = ws.Score(a)
	}
}
