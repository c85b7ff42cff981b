// Package mobility simulates vehicle movement on a road network. It
// provides the Intelligent Driver Model (IDM) for car following, random
// trip generation over shortest paths, parked-vehicle behaviour for the
// stationary-cloud scenarios, and dwell-time signals used by the v-cloud
// task scheduler (both an oracle and realistic estimators).
//
// The Manager advances all vehicles on a fixed tick driven by the sim
// kernel, maintaining per-lane ordering for leader lookup and a spatial
// index for radio-range neighbor queries.
package mobility

import (
	"fmt"
	"math"
	"slices"

	"vcloud/internal/geo"
	"vcloud/internal/roadnet"
)

// VehicleID identifies a vehicle across all subsystems.
type VehicleID int32

// Profile captures per-vehicle driving and equipment characteristics. The
// paper (Fig. 1) stresses heterogeneity: automation level, sensors and
// compute differ per vehicle and matter for task allocation.
type Profile struct {
	// AutomationLevel follows SAE J3016: 0 (none) .. 5 (full automation).
	AutomationLevel int
	// DesiredSpeedFactor scales the edge speed limit (e.g. 1.1 = drives
	// 10% above the limit).
	DesiredSpeedFactor float64
	// MaxAccel and ComfortDecel are the IDM a and b parameters (m/s²).
	MaxAccel, ComfortDecel float64
	// Headway is the IDM desired time gap T in seconds.
	Headway float64
	// MinGap is the IDM jam distance s0 in meters.
	MinGap float64
	// CPU is compute capacity in abstract ops/sec; Storage in MB. Used by
	// the v-cloud resource pool.
	CPU     float64
	Storage float64
	// Sensors lists equipped sensor kinds (e.g. "camera", "lidar").
	Sensors []string
}

// DefaultProfile returns a mid-range vehicle profile.
func DefaultProfile() Profile {
	return Profile{
		AutomationLevel:    3,
		DesiredSpeedFactor: 1.0,
		MaxAccel:           1.5,
		ComfortDecel:       2.0,
		Headway:            1.5,
		MinGap:             2.0,
		CPU:                1000,
		Storage:            256,
		Sensors:            []string{"camera", "gps"},
	}
}

// State is the externally visible kinematic state of a vehicle.
type State struct {
	ID      VehicleID
	Pos     geo.Point
	Speed   float64 // m/s
	Heading float64 // radians
	Edge    roadnet.EdgeID
	Offset  float64 // meters along Edge
	Parked  bool
}

// Velocity returns the velocity vector of the state.
func (s State) Velocity() geo.Vector {
	return geo.HeadingVector(s.Heading).Scale(s.Speed)
}

// vehicle is the internal mutable record.
type vehicle struct {
	id      VehicleID
	profile Profile

	edge   roadnet.EdgeID
	lane   int
	slot   int     // index in its lane's vs, maintained by lane.insert/remove/restore
	offset float64 // meters from edge start
	speed  float64
	// pos is the map position of (edge, offset), refreshed wherever either
	// changes (AddVehicle, Step) so readers never recompute it.
	pos    geo.Point
	parked bool
	gone   bool // departed the simulation entirely

	route    []roadnet.EdgeID // remaining edges after the current one
	routeIdx int              // index into route of the next edge
	dest     roadnet.NodeID
	// laneCooldown throttles lane changes (seconds remaining).
	laneCooldown float64
	// loop, when non-nil, is a closed route driven forever (bus line).
	loop []roadnet.EdgeID
}

// lane is one lane of one edge. Between Steps vs is sorted by (offset,
// id): car-following reads its leader from the next slot and a lane
// change finds its gaps with one binary search.
type lane struct {
	vs []*vehicle
	// restored is the Manager.steps value at which Step last re-sorted vs;
	// it keeps the restore pass to one visit per lane per tick.
	restored uint64
}

// before is the lane order: ascending offset, equal offsets by id.
func before(a, b *vehicle) bool {
	return a.offset < b.offset || (a.offset == b.offset && a.id < b.id)
}

// firstAfter returns the index of the first entry ordered after
// (offset, id), or len(l.vs) when there is none.
func (l *lane) firstAfter(offset float64, id VehicleID) int {
	lo, hi := 0, len(l.vs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o := l.vs[mid]; o.offset < offset || (o.offset == offset && o.id <= id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert places v at its sorted position. Inside Step's integrate phase
// the lane may be momentarily out of order; the position is then only a
// starting point that the restore pass corrects.
func (l *lane) insert(v *vehicle) {
	i := l.firstAfter(v.offset, v.id)
	l.vs = append(l.vs, nil)
	copy(l.vs[i+1:], l.vs[i:])
	l.vs[i] = v
	l.renumber(i)
}

// remove takes v out of the lane, keeping the others in order.
func (l *lane) remove(v *vehicle) {
	i := v.slot
	copy(l.vs[i:], l.vs[i+1:])
	l.vs[len(l.vs)-1] = nil
	l.vs = l.vs[:len(l.vs)-1]
	l.renumber(i)
}

func (l *lane) renumber(from int) {
	for i := from; i < len(l.vs); i++ {
		l.vs[i].slot = i
	}
}

// restore re-sorts the lane after offsets moved. Car-following keeps a
// lane almost sorted (an arrival from another edge or two cars overlapping
// in a jam are the exceptions), so the insertion sort is one linear pass
// that usually writes nothing.
func (l *lane) restore() {
	vs := l.vs
	for i := 1; i < len(vs); i++ {
		v, j := vs[i], i
		for ; j > 0 && before(v, vs[j-1]); j-- {
			vs[j] = vs[j-1]
			vs[j].slot = j
		}
		if j != i {
			vs[j] = v
			v.slot = j
		}
	}
}

// update is one vehicle's acceleration, computed in Step's first phase
// and applied in its second.
type update struct {
	v     *vehicle
	accel float64
}

// Manager owns all vehicles and advances them in lock-step.
type Manager struct {
	net   *roadnet.Network
	index *geo.GridIndex
	// vehicles is indexed by VehicleID (ids are handed out sequentially
	// from 0); nil marks a departed vehicle.
	vehicles []*vehicle
	// ids lists the live vehicles in ascending order. Step, IDs and every
	// downstream consumer follow it, so creation order, RNG draw sequences
	// and tie-breaks never depend on how vehicles are stored.
	ids []VehicleID
	// lanes[edge][lane] holds the vehicles on that lane (parked ones
	// included: they are obstacles) in (offset, id) order.
	lanes [][]lane
	// updates is Step's scratch, reused every tick.
	updates []update
	steps   uint64
	// tripRNG drives random destination choice; injected so runs are
	// deterministic.
	randFn func(n int) int
	// departures notifies subscribers when a vehicle leaves (parks off or
	// exits the scenario); used by vcloud for churn accounting.
	departures []func(VehicleID)
}

// NewManager creates a mobility manager on the given network. cellSize
// configures the spatial index and should match the radio range. randFn
// must return a uniform int in [0,n); pass rng.Intn.
func NewManager(net *roadnet.Network, cellSize float64, randFn func(n int) int) (*Manager, error) {
	if net == nil {
		return nil, fmt.Errorf("mobility: network must not be nil")
	}
	if randFn == nil {
		return nil, fmt.Errorf("mobility: randFn must not be nil")
	}
	idx, err := geo.NewGridIndex(net.Bounds(), cellSize)
	if err != nil {
		return nil, fmt.Errorf("mobility: %w", err)
	}
	lanes := make([][]lane, net.NumEdges())
	for e := range lanes {
		lanes[e] = make([]lane, net.Edge(roadnet.EdgeID(e)).Lanes)
	}
	return &Manager{
		net:    net,
		index:  idx,
		lanes:  lanes,
		randFn: randFn,
	}, nil
}

// Network returns the underlying road network.
func (m *Manager) Network() *roadnet.Network { return m.net }

// Index returns the spatial index over vehicle positions. Callers must
// treat it as read-only.
func (m *Manager) Index() *geo.GridIndex { return m.index }

// OnDeparture registers fn to be called when a vehicle leaves the
// simulation.
func (m *Manager) OnDeparture(fn func(VehicleID)) {
	if fn != nil {
		m.departures = append(m.departures, fn)
	}
}

// AddVehicle places a vehicle at the start of edge e with the given
// profile, driving random trips. It returns the new vehicle's ID.
func (m *Manager) AddVehicle(e roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error) {
	if int(e) >= m.net.NumEdges() || e < 0 {
		return 0, fmt.Errorf("mobility: edge %d out of range", e)
	}
	edge := m.net.Edge(e)
	if offset < 0 || offset > edge.Length {
		return 0, fmt.Errorf("mobility: offset %v outside edge length %v", offset, edge.Length)
	}
	normalizeProfile(&profile)
	id := VehicleID(len(m.vehicles))
	v := &vehicle{
		id:      id,
		profile: profile,
		edge:    e,
		lane:    int(id) % edge.Lanes,
		offset:  offset,
		speed:   0,
	}
	v.pos = m.posOf(v)
	m.vehicles = append(m.vehicles, v)
	m.ids = append(m.ids, id)
	m.laneOf(v).insert(v)
	m.index.Update(int32(id), v.pos)
	m.pickNewDestination(v)
	return id, nil
}

// AddParkedVehicle places a stationary vehicle (stationary v-cloud node).
func (m *Manager) AddParkedVehicle(e roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error) {
	id, err := m.AddVehicle(e, offset, profile)
	if err != nil {
		return 0, err
	}
	m.vehicles[id].parked = true
	return id, nil
}

func normalizeProfile(p *Profile) {
	d := DefaultProfile()
	if p.DesiredSpeedFactor <= 0 {
		p.DesiredSpeedFactor = d.DesiredSpeedFactor
	}
	if p.MaxAccel <= 0 {
		p.MaxAccel = d.MaxAccel
	}
	if p.ComfortDecel <= 0 {
		p.ComfortDecel = d.ComfortDecel
	}
	if p.Headway <= 0 {
		p.Headway = d.Headway
	}
	if p.MinGap <= 0 {
		p.MinGap = d.MinGap
	}
	if p.CPU <= 0 {
		p.CPU = d.CPU
	}
	if p.Storage <= 0 {
		p.Storage = d.Storage
	}
}

// Remove departs a vehicle from the simulation (e.g. it parked and turned
// off, or drove out of the modeled area).
func (m *Manager) Remove(id VehicleID) {
	v := m.vehicle(id)
	if v == nil {
		return
	}
	v.gone = true
	m.laneOf(v).remove(v)
	m.index.Remove(int32(id))
	m.vehicles[id] = nil
	if i, ok := slices.BinarySearch(m.ids, id); ok {
		m.ids = slices.Delete(m.ids, i, i+1)
	}
	for _, fn := range m.departures {
		fn(id)
	}
}

// vehicle returns the live record of id, or nil when id was never issued
// or has departed.
func (m *Manager) vehicle(id VehicleID) *vehicle {
	if id < 0 || int(id) >= len(m.vehicles) {
		return nil
	}
	return m.vehicles[id]
}

// NumVehicles returns the live vehicle count.
func (m *Manager) NumVehicles() int { return len(m.ids) }

// Pos returns the position of a vehicle — the cheap read for callers that
// need neither speed nor heading (the per-tick push into the radio medium).
func (m *Manager) Pos(id VehicleID) (geo.Point, bool) {
	v := m.vehicle(id)
	if v == nil {
		return geo.Point{}, false
	}
	return v.pos, true
}

// State returns the kinematic state of a vehicle.
func (m *Manager) State(id VehicleID) (State, bool) {
	v := m.vehicle(id)
	if v == nil {
		return State{}, false
	}
	return State{
		ID:      id,
		Pos:     v.pos,
		Speed:   v.speed,
		Heading: m.net.EdgeHeading(v.edge),
		Edge:    v.edge,
		Offset:  v.offset,
		Parked:  v.parked,
	}, true
}

// Profile returns the vehicle's profile.
func (m *Manager) Profile(id VehicleID) (Profile, bool) {
	v := m.vehicle(id)
	if v == nil {
		return Profile{}, false
	}
	return v.profile, true
}

// IDs appends all live vehicle IDs to dst in ascending order and returns
// it.
func (m *Manager) IDs(dst []VehicleID) []VehicleID {
	return append(dst, m.ids...)
}

func (m *Manager) posOf(v *vehicle) geo.Point {
	edge := m.net.Edge(v.edge)
	t := 0.0
	if edge.Length > 0 {
		t = v.offset / edge.Length
	}
	return m.net.PosAlong(v.edge, t)
}

func (m *Manager) laneOf(v *vehicle) *lane { return &m.lanes[v.edge][v.lane] }

// leaderGap returns the bumper gap and speed of the nearest vehicle
// strictly ahead on the same edge+lane, or (inf, 0, false) when the lane
// ahead is clear. With the lane in (offset, id) order that is the next
// slot, past any vehicles level with v; when several share the nearest
// offset ahead, the lowest id is the leader — a function of the state,
// not of the order in which they entered the lane.
//
//vcloudlint:hotpath twice per moving vehicle per tick; must not rescan the lane
func (m *Manager) leaderGap(v *vehicle) (gap, leaderSpeed float64, ok bool) {
	for _, o := range m.laneOf(v).vs[v.slot+1:] {
		if o.offset > v.offset {
			return o.offset - v.offset, o.speed, true
		}
	}
	return math.Inf(1), 0, false
}

// idmAccel computes the Intelligent Driver Model acceleration.
func idmAccel(p Profile, speed, desired, gap, leaderSpeed float64, hasLeader bool) float64 {
	if desired <= 0 {
		desired = 0.1
	}
	free := 1 - math.Pow(speed/desired, 4)
	if !hasLeader {
		return p.MaxAccel * free
	}
	dv := speed - leaderSpeed
	sStar := p.MinGap + math.Max(0, speed*p.Headway+speed*dv/(2*math.Sqrt(p.MaxAccel*p.ComfortDecel)))
	if gap < 0.1 {
		gap = 0.1
	}
	inter := math.Pow(sStar/gap, 2)
	return p.MaxAccel * (free - inter)
}

// Step advances all vehicles by dt seconds. It is called from a sim
// kernel ticker.
//
//vcloudlint:hotpath the per-tick kernel under every moving scenario; no sort, make or literal per tick
func (m *Manager) Step(dt float64) {
	if dt <= 0 {
		return
	}
	// Phase one computes every acceleration before any offset or speed
	// moves, so car-following reads one consistent snapshot. Lane changes
	// are the exception: maybeChangeLane runs inside this phase, in id
	// order, so a later vehicle does see an earlier vehicle's change of
	// lane made this tick. Ascending id order is therefore part of the
	// model (as is the order of randFn draws in phase two).
	m.updates = m.updates[:0]
	for _, id := range m.ids {
		v := m.vehicles[id]
		if v.parked {
			continue
		}
		m.maybeChangeLane(v, dt)
		edge := m.net.Edge(v.edge)
		desired := edge.SpeedLimit * v.profile.DesiredSpeedFactor
		gap, ls, hasLeader := m.leaderGap(v)
		a := idmAccel(v.profile, v.speed, desired, gap, ls, hasLeader)
		m.updates = append(m.updates, update{v, a})
	}
	// Phase two integrates. Nothing reads lane order here, so lanes may
	// fall out of order until phase three.
	for _, u := range m.updates {
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
		if !v.gone {
			v.pos = m.posOf(v)
			m.index.Update(int32(v.id), v.pos)
		}
	}
	// Phase three restores (offset, id) order in every lane a moving
	// vehicle ended the tick on, once per lane.
	m.steps++
	for _, u := range m.updates {
		if l := m.laneOf(u.v); l.restored != m.steps {
			l.restored = m.steps
			l.restore()
		}
	}
}

// advanceEdge moves v onto the next edge of its route, wrapping the
// leftover offset. It returns false when the vehicle stopped (reached its
// destination and a new one could not be assigned, which does not happen
// with random trips, or it departed).
func (m *Manager) advanceEdge(v *vehicle) bool {
	leftover := v.offset - m.net.Edge(v.edge).Length
	if v.routeIdx >= len(v.route) {
		// Arrived at destination: start a new trip from here.
		m.pickNewDestination(v)
		if v.routeIdx >= len(v.route) {
			// No route found (isolated node); park in place.
			v.offset = m.net.Edge(v.edge).Length
			v.speed = 0
			return false
		}
	}
	next := v.route[v.routeIdx]
	v.routeIdx++
	m.laneOf(v).remove(v)
	v.edge = next
	nextLanes := m.net.Edge(next).Lanes
	v.lane = int(v.id) % nextLanes
	v.offset = leftover
	m.laneOf(v).insert(v)
	return true
}

// pickNewDestination assigns the vehicle's next route: loop vehicles
// restart their loop; others draw a fresh random destination reachable
// from the end of the current edge.
func (m *Manager) pickNewDestination(v *vehicle) {
	if v.loop != nil {
		// The current edge is the last loop edge; continue from the top.
		v.route = v.loop
		v.routeIdx = 0
		return
	}
	from := m.net.Edge(v.edge).To
	for attempt := 0; attempt < 8; attempt++ {
		//vcloudlint:allow hotalloc trip ends are rare (once per vehicle per route, not per tick); the draw goes through the injected stream
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

// RemainingRoute returns the edges the vehicle will traverse after its
// current edge. The slice is a copy.
func (m *Manager) RemainingRoute(id VehicleID) []roadnet.EdgeID {
	v := m.vehicle(id)
	if v == nil || v.routeIdx >= len(v.route) {
		return nil
	}
	out := make([]roadnet.EdgeID, len(v.route)-v.routeIdx)
	copy(out, v.route[v.routeIdx:])
	return out
}
