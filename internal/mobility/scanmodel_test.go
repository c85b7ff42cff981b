package mobility

import (
	"math"
	"sort"

	"vcloud/internal/geo"
	"vcloud/internal/roadnet"
)

// scanManager is the Manager this package shipped before lanes were kept
// in offset order: vehicles in a map, each lane an unordered id list
// (swap-remove on exit), leader and gap lookups by scanning the whole
// lane, and a per-tick collect-and-sort of the ids. It is kept verbatim
// (minus the spatial index, which no dynamics read) as the reference
// model for TestStepMatchesScanModel and the directed tie test.
type scanManager struct {
	net        *roadnet.Network
	vehicles   map[VehicleID]*vehicle
	perLane    map[roadnet.EdgeID][][]VehicleID
	nextID     VehicleID
	randFn     func(n int) int
	departures []func(VehicleID)
}

func newScanManager(net *roadnet.Network, randFn func(n int) int) *scanManager {
	return &scanManager{
		net:      net,
		vehicles: make(map[VehicleID]*vehicle),
		perLane:  make(map[roadnet.EdgeID][][]VehicleID),
		randFn:   randFn,
	}
}

func (m *scanManager) OnDeparture(fn func(VehicleID)) {
	m.departures = append(m.departures, fn)
}

func (m *scanManager) AddVehicle(e roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error) {
	edge := m.net.Edge(e)
	normalizeProfile(&profile)
	id := m.nextID
	m.nextID++
	v := &vehicle{
		id:      id,
		profile: profile,
		edge:    e,
		lane:    int(id) % edge.Lanes,
		offset:  offset,
		speed:   0,
	}
	m.vehicles[id] = v
	m.addToLane(v)
	m.pickNewDestination(v)
	return id, nil
}

func (m *scanManager) AddParkedVehicle(e roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error) {
	id, _ := m.AddVehicle(e, offset, profile)
	m.vehicles[id].parked = true
	return id, nil
}

func (m *scanManager) AddLoopVehicle(route []roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error) {
	id, _ := m.AddVehicle(route[0], offset, profile)
	v := m.vehicles[id]
	v.loop = append([]roadnet.EdgeID(nil), route...)
	v.route = v.loop[1:]
	v.routeIdx = 0
	return id, nil
}

func (m *scanManager) Remove(id VehicleID) {
	v, ok := m.vehicles[id]
	if !ok {
		return
	}
	v.gone = true
	m.removeFromLane(v)
	delete(m.vehicles, id)
	for _, fn := range m.departures {
		fn(id)
	}
}

func (m *scanManager) State(id VehicleID) (State, bool) {
	v, ok := m.vehicles[id]
	if !ok {
		return State{}, false
	}
	return State{
		ID:      id,
		Pos:     m.posOf(v),
		Speed:   v.speed,
		Heading: m.net.EdgeHeading(v.edge),
		Edge:    v.edge,
		Offset:  v.offset,
		Parked:  v.parked,
	}, true
}

func (m *scanManager) IDs(dst []VehicleID) []VehicleID {
	start := len(dst)
	for id := range m.vehicles {
		dst = append(dst, id)
	}
	added := dst[start:]
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	return dst
}

func (m *scanManager) posOf(v *vehicle) geo.Point {
	edge := m.net.Edge(v.edge)
	t := 0.0
	if edge.Length > 0 {
		t = v.offset / edge.Length
	}
	return m.net.PosAlong(v.edge, t)
}

func (m *scanManager) addToLane(v *vehicle) {
	lanes := m.perLane[v.edge]
	if lanes == nil {
		lanes = make([][]VehicleID, m.net.Edge(v.edge).Lanes)
		m.perLane[v.edge] = lanes
	}
	if v.lane >= len(lanes) {
		v.lane = len(lanes) - 1
	}
	lanes[v.lane] = append(lanes[v.lane], v.id)
}

func (m *scanManager) removeFromLane(v *vehicle) {
	lanes := m.perLane[v.edge]
	if v.lane >= len(lanes) {
		return
	}
	ids := lanes[v.lane]
	for i, id := range ids {
		if id == v.id {
			ids[i] = ids[len(ids)-1]
			lanes[v.lane] = ids[:len(ids)-1]
			return
		}
	}
}

func (m *scanManager) leaderGap(v *vehicle) (gap, leaderSpeed float64, ok bool) {
	gap = math.Inf(1)
	for _, id := range m.laneMates(v) {
		if id == v.id {
			continue
		}
		o := m.vehicles[id]
		if o.offset <= v.offset {
			continue
		}
		if g := o.offset - v.offset; g < gap {
			gap, leaderSpeed, ok = g, o.speed, true
		}
	}
	return gap, leaderSpeed, ok
}

func (m *scanManager) laneMates(v *vehicle) []VehicleID {
	lanes := m.perLane[v.edge]
	if v.lane >= len(lanes) {
		return nil
	}
	return lanes[v.lane]
}

func (m *scanManager) Step(dt float64) {
	if dt <= 0 {
		return
	}
	type upd struct {
		v     *vehicle
		accel float64
	}
	ids := m.IDs(nil)
	updates := make([]upd, 0, len(ids))
	for _, id := range ids {
		v := m.vehicles[id]
		if v.parked {
			continue
		}
		m.maybeChangeLane(v, dt)
		edge := m.net.Edge(v.edge)
		desired := edge.SpeedLimit * v.profile.DesiredSpeedFactor
		gap, ls, hasLeader := m.leaderGap(v)
		a := idmAccel(v.profile, v.speed, desired, gap, ls, hasLeader)
		updates = append(updates, upd{v, a})
	}
	for _, u := range updates {
		v := u.v
		v.speed += u.accel * dt
		if v.speed < 0 {
			v.speed = 0
		}
		v.offset += v.speed * dt
		for v.offset >= m.net.Edge(v.edge).Length {
			if !m.advanceEdge(v) {
				break
			}
		}
	}
}

func (m *scanManager) advanceEdge(v *vehicle) bool {
	leftover := v.offset - m.net.Edge(v.edge).Length
	if v.routeIdx >= len(v.route) {
		m.pickNewDestination(v)
		if v.routeIdx >= len(v.route) {
			v.offset = m.net.Edge(v.edge).Length
			v.speed = 0
			return false
		}
	}
	next := v.route[v.routeIdx]
	v.routeIdx++
	m.removeFromLane(v)
	v.edge = next
	nextLanes := m.net.Edge(next).Lanes
	v.lane = int(v.id) % nextLanes
	v.offset = leftover
	m.addToLane(v)
	return true
}

func (m *scanManager) pickNewDestination(v *vehicle) {
	if v.loop != nil {
		v.route = v.loop
		v.routeIdx = 0
		return
	}
	from := m.net.Edge(v.edge).To
	for attempt := 0; attempt < 8; attempt++ {
		dst := roadnet.NodeID(m.randFn(m.net.NumNodes()))
		if dst == from {
			continue
		}
		path, err := m.net.ShortestPath(from, dst)
		if err != nil || len(path) == 0 {
			continue
		}
		v.route = path
		v.routeIdx = 0
		v.dest = dst
		return
	}
	v.route = nil
	v.routeIdx = 0
}

func (m *scanManager) maybeChangeLane(v *vehicle, dt float64) {
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
	if !hasLeader || curGap > blockedGap || v.speed > desired*0.9 {
		return
	}
	best := -1
	bestGap := curGap * gapAdvantage
	for _, lane := range []int{v.lane - 1, v.lane + 1} {
		if lane < 0 || lane >= edge.Lanes {
			continue
		}
		gap, follower := m.laneGaps(v, lane)
		if follower < safeFollowerGap {
			continue
		}
		if gap > bestGap {
			best, bestGap = lane, gap
		}
	}
	if best < 0 {
		return
	}
	m.removeFromLane(v)
	v.lane = best
	m.addToLane(v)
	v.laneCooldown = laneChangeCooldown
}

func (m *scanManager) laneGaps(v *vehicle, lane int) (leader, follower float64) {
	leader, follower = math.Inf(1), math.Inf(1)
	lanes := m.perLane[v.edge]
	if lane >= len(lanes) {
		return leader, follower
	}
	for _, id := range lanes[lane] {
		o := m.vehicles[id]
		switch {
		case o.offset > v.offset:
			if g := o.offset - v.offset; g < leader {
				leader = g
			}
		case o.offset < v.offset:
			if g := v.offset - o.offset; g < follower {
				follower = g
			}
		default:
			follower = 0
		}
	}
	return leader, follower
}
