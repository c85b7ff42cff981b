package radio

import (
	"vcloud/internal/sim"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Trend returns the latest modified trendline value (ms): positive under
// queue growth, negative while draining.
func (e *BWEstimator) Trend() float64 { return e.trend }

// ThresholdMs returns the current adaptive overuse threshold.
func (e *BWEstimator) ThresholdMs() float64 { return e.thresholdMs }

// State returns the detector state: "normal", "overuse" or "underuse".
func (e *BWEstimator) State() string {
	switch e.state {
	case stateOveruse:
		return "overuse"
	case stateUnderuse:
		return "underuse"
	default:
		return "normal"
	}
}

// BaseRTT returns the underlying link's healthy round-trip latency.
func (s *Sender) BaseRTT() sim.Time { return s.u.params.BaseRTT }

// Estimator exposes the underlying estimator (tests and invariant
// checks).
func (s *Sender) Estimator() *BWEstimator { return s.est }

// Crashed reports whether a node is silenced.
func (t *FaultTable) Crashed(id NodeID) bool { return t.dead[id] }

// Neighbors appends the IDs of nodes within range of node id (excluding
// itself) and returns the slice. It reflects true geometry, not beacons;
// protocol code should normally use vnet neighbor tables instead.
func (m *Medium) Neighbors(dst []NodeID, id NodeID) []NodeID {
	p, ok := m.index.Position(int32(id))
	if !ok {
		return dst
	}
	m.scratchIDs = m.index.WithinRange(m.scratchIDs[:0], p, m.params.RangeMax, int32(id))
	for _, r := range m.scratchIDs {
		dst = append(dst, NodeID(r))
	}
	return dst
}

// Params returns the channel configuration.
func (c *ShardChannel) Params() Params { return c.params }

// RoundTrip is a Sender's round trip from a source that keeps no
// estimate of its own.
func (u *Uplink) RoundTrip(reqBytes, respBytes int, fn func()) bool {
	return u.NewSender(BWEConfig{}).RoundTrip(reqBytes, respBytes, fn)
}
