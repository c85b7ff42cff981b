package mobility

import "math"

// Lane changing (MOBIL-flavoured): a vehicle blocked behind a slower
// leader moves to an adjacent lane when the target lane offers a clearly
// better gap and the move is safe for the target lane's follower. This
// is the overtaking behaviour multi-lane highways need for realistic
// density/speed distributions; single-lane edges are unaffected.
const (
	// laneChangeCooldown prevents oscillation (seconds between changes).
	laneChangeCooldown = 5.0
	// blockedGap is the leader gap (meters) below which a vehicle starts
	// considering a change.
	blockedGap = 50.0
	// gapAdvantage is the factor by which the target lane's gap must
	// beat the current one.
	gapAdvantage = 1.5
	// safeFollowerGap is the minimum clearance to the target lane's
	// rear vehicle.
	safeFollowerGap = 15.0
)

// maybeChangeLane evaluates a lane change for v and performs it when
// warranted. dt ages the cooldown.
//
//vcloudlint:hotpath once per moving vehicle per tick, inside Step's first phase
func (m *Manager) maybeChangeLane(v *vehicle, dt float64) {
	if v.laneCooldown > 0 {
		v.laneCooldown -= dt
		return
	}
	edge := m.net.Edge(v.edge)
	if edge.Lanes < 2 {
		return
	}
	desired := edge.SpeedLimit * v.profile.DesiredSpeedFactor
	curGap, _, hasLeader := m.leaderGap(v)
	// Only vehicles actually held up consider changing.
	if !hasLeader || curGap > blockedGap || v.speed > desired*0.9 {
		return
	}
	best := -1
	bestGap := curGap * gapAdvantage
	for lane := v.lane - 1; lane <= v.lane+1; lane += 2 {
		if lane < 0 || lane >= edge.Lanes {
			continue
		}
		gap, follower := m.laneGaps(v, lane)
		if follower < safeFollowerGap {
			continue // unsafe cut-in
		}
		if gap > bestGap {
			best, bestGap = lane, gap
		}
	}
	if best < 0 {
		return
	}
	m.laneOf(v).remove(v)
	v.lane = best
	m.laneOf(v).insert(v)
	v.laneCooldown = laneChangeCooldown
}

// laneGaps returns the forward gap to the nearest leader and the
// backward gap to the nearest follower in the given (adjacent) lane of
// v's edge. Open road returns +Inf gaps.
func (m *Manager) laneGaps(v *vehicle, lane int) (leader, follower float64) {
	leader, follower = math.Inf(1), math.Inf(1)
	l := &m.lanes[v.edge][lane]
	vs := l.vs
	// i is the first entry strictly ahead of v; the one before it is level
	// with v or the nearest behind.
	i := l.firstAfter(v.offset, math.MaxInt32)
	if i < len(vs) {
		leader = vs[i].offset - v.offset
	}
	if i > 0 {
		// Exactly side by side counts as a zero follower gap (unsafe).
		follower = v.offset - vs[i-1].offset
	}
	return leader, follower
}
