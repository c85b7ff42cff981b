package cluster

import (
	"time"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// Tracker accumulates the cluster-stability metrics experiment E3
// reports: head changes, affiliation changes, and time spent clustered.
type Tracker struct {
	headChanges  uint64 // a node's head identity changed (incl. role flips)
	roleChanges  uint64 // any state transition
	becameHead   uint64
	lastHead     map[vnet.Addr]vnet.Addr
	clusteredAt  map[vnet.Addr]sim.Time // when the node last became clustered
	clusteredFor map[vnet.Addr]sim.Time // accumulated clustered duration
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		lastHead:     make(map[vnet.Addr]vnet.Addr),
		clusteredAt:  make(map[vnet.Addr]sim.Time),
		clusteredFor: make(map[vnet.Addr]sim.Time),
	}
}

// Record notes a state transition of node addr at virtual time now.
func (t *Tracker) Record(now sim.Time, addr vnet.Addr, old, new State) {
	t.roleChanges++
	if new.Role == Head && old.Role != Head {
		t.becameHead++
	}
	if prev, ok := t.lastHead[addr]; ok && prev != new.Head {
		t.headChanges++
	}
	t.lastHead[addr] = new.Head

	wasClustered := old.Role == Head || old.Role == Member
	isClustered := new.Role == Head || new.Role == Member
	switch {
	case !wasClustered && isClustered:
		t.clusteredAt[addr] = now
	case wasClustered && !isClustered:
		if start, ok := t.clusteredAt[addr]; ok {
			t.clusteredFor[addr] += now - start
			delete(t.clusteredAt, addr)
		}
	}
}

// Finish closes all open clustered intervals at time now. Call once at the
// end of a run before reading durations.
func (t *Tracker) Finish(now sim.Time) {
	for addr, start := range t.clusteredAt {
		t.clusteredFor[addr] += now - start
		delete(t.clusteredAt, addr)
	}
}

// HeadChanges returns the number of head re-affiliations observed.
func (t *Tracker) HeadChanges() uint64 { return t.headChanges }

// MeanClusteredSeconds returns the average per-node clustered time in
// seconds across all nodes that were ever clustered.
func (t *Tracker) MeanClusteredSeconds() float64 {
	if len(t.clusteredFor) == 0 {
		return 0
	}
	var total sim.Time
	for _, d := range t.clusteredFor {
		total += d
	}
	return total.Seconds() / float64(len(t.clusteredFor))
}

// HeadChangesPerNodeMinute normalizes head churn by node count and run
// length.
func (t *Tracker) HeadChangesPerNodeMinute(nodes int, runFor sim.Time) float64 {
	if nodes == 0 || runFor <= 0 {
		return 0
	}
	minutes := float64(runFor) / float64(60*time.Second)
	return float64(t.headChanges) / float64(nodes) / minutes
}
