package trust

import (
	"vcloud/internal/vnet"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Known returns how many reporters have accumulated reputation.
func (rs *Reputation) Known() int { return len(rs.scores) }

// Known returns how many workers have accumulated evidence.
func (ws *WorkerSet) Known() int { return len(ws.recs) }

// Snapshot returns current scores keyed by worker, for reports. Decay is
// applied as of now.
func (ws *WorkerSet) Snapshot() map[vnet.Addr]float64 {
	out := make(map[vnet.Addr]float64, len(ws.recs))
	for a := range ws.recs {
		out[a] = ws.Score(a)
	}
	return out
}
