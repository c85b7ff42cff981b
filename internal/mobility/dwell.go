package mobility

import (
	"math"

	"vcloud/internal/geo"
	"vcloud/internal/roadnet"
)

// DwellMode selects the information a dwell-time estimator may use. The
// paper (§III.A) identifies dwell ("duration of stay") estimation as the
// central difficulty of v-cloud task allocation; E7 ablates these modes.
type DwellMode int

const (
	// DwellSpeedOnly extrapolates the current velocity vector in a
	// straight line — the information a stranger vehicle can observe from
	// beacons alone.
	DwellSpeedOnly DwellMode = iota + 1
	// DwellRouteAware walks the vehicle's remaining planned route at
	// per-edge expected speeds — information the vehicle itself could
	// share with a scheduler (at a privacy cost, see §III.B).
	DwellRouteAware
)

// String implements fmt.Stringer.
func (d DwellMode) String() string {
	switch d {
	case DwellSpeedOnly:
		return "speed-only"
	case DwellRouteAware:
		return "route-aware"
	default:
		return "unknown"
	}
}

// DwellTier buckets a dwell estimate (seconds, as returned by
// EstimateDwell) into coarse placement tiers for reliability-weighted
// replica placement: 3 for parked or long stayers (>= 10 min,
// including +Inf), 2 for >= 2 min, 1 for >= 30 s, and 0 for short or
// unknown (0) dwell. Coarse buckets keep placement stable under
// estimator jitter — a vehicle sliding from 601 s to 599 s of
// predicted dwell should not reshuffle every fragment.
func DwellTier(seconds float64) int {
	switch {
	case seconds >= 600:
		return 3
	case seconds >= 120:
		return 2
	case seconds >= 30:
		return 1
	default:
		return 0
	}
}

// EstimateDwell predicts how many seconds vehicle id will remain within
// radius of center. It returns +Inf when the estimator predicts the
// vehicle never leaves (e.g. parked), and 0 when the vehicle is already
// outside or unknown.
func (m *Manager) EstimateDwell(id VehicleID, center geo.Point, radius float64, mode DwellMode) float64 {
	v := m.vehicle(id)
	if v == nil {
		return 0
	}
	pos := v.pos
	if pos.Dist(center) > radius {
		return 0
	}
	if v.parked {
		return math.Inf(1)
	}
	switch mode {
	case DwellSpeedOnly:
		return dwellStraightLine(pos, m.net.EdgeHeading(v.edge), v.speed, center, radius)
	case DwellRouteAware:
		return m.dwellAlongRoute(v, center, radius)
	default:
		return 0
	}
}

// dwellStraightLine solves |pos + t·vel - center| = radius for the
// smallest positive t.
func dwellStraightLine(pos geo.Point, heading, speed float64, center geo.Point, radius float64) float64 {
	if speed < 0.1 {
		// Nearly stopped: assume it stays for a long but finite time at
		// crawl speed toward the boundary.
		speed = 0.1
	}
	vel := geo.HeadingVector(heading).Scale(speed)
	rel := pos.Sub(center)
	// Quadratic: |rel + t·vel|² = r².
	a := vel.Dot(vel)
	b := 2 * rel.Dot(vel)
	c := rel.Dot(rel) - radius*radius
	disc := b*b - 4*a*c
	if disc < 0 || a == 0 {
		return math.Inf(1)
	}
	t := (-b + math.Sqrt(disc)) / (2 * a)
	if t < 0 {
		return 0
	}
	return t
}

// dwellAlongRoute walks the current edge remainder plus the planned route
// polyline, accumulating time at each edge's expected speed, until the
// path exits the circle. The walk is capped at 1 hour of predicted travel.
func (m *Manager) dwellAlongRoute(v *vehicle, center geo.Point, radius float64) float64 {
	const horizon = 3600.0
	total := 0.0
	// Expected speed on an edge: limit × driver factor, floored to the
	// vehicle's current speed category so a jammed vehicle is not assumed
	// to teleport.
	speedOn := func(e roadnet.EdgeID) float64 {
		edge := m.net.Edge(e)
		s := edge.SpeedLimit * v.profile.DesiredSpeedFactor
		if s < 1 {
			s = 1
		}
		return s
	}
	// Walk the remaining part of the current edge in 10 m steps.
	walk := func(eid roadnet.EdgeID, fromOffset float64) (exitAt float64, exited bool) {
		edge := m.net.Edge(eid)
		sp := speedOn(eid)
		const stepM = 10.0
		for off := fromOffset; off < edge.Length; off += stepM {
			t := off / edge.Length
			p := m.net.PosAlong(eid, t)
			if p.Dist(center) > radius {
				return total, true
			}
			adv := math.Min(stepM, edge.Length-off)
			total += adv / sp
			if total > horizon {
				return total, true
			}
		}
		return 0, false
	}
	if at, exited := walk(v.edge, v.offset); exited {
		return at
	}
	for i := v.routeIdx; i < len(v.route); i++ {
		if at, exited := walk(v.route[i], 0); exited {
			return at
		}
	}
	// Route ends inside the circle; beyond that the vehicle picks a new
	// random trip, unknowable to the estimator. Assume it lingers one
	// more crossing of the circle diameter at its desired speed.
	edge := m.net.Edge(v.edge)
	sp := edge.SpeedLimit * v.profile.DesiredSpeedFactor
	if sp < 1 {
		sp = 1
	}
	return total + 2*radius/sp
}
