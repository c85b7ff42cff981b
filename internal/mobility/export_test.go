package mobility

import (
	"slices"

	"vcloud/internal/geo"
	"vcloud/internal/roadnet"
)

// Accessors only the tests read. The execution census keeps the
// program to what a run executes; these stay here for the tests.

// Velocity returns the velocity vector of the state.
func (s State) Velocity() geo.Vector {
	return geo.HeadingVector(s.Heading).Scale(s.Speed)
}

// Network returns the underlying road network.
func (m *Manager) Network() *roadnet.Network { return m.net }

// Remove departs a vehicle from the simulation (e.g. it parked and turned
// off, or drove out of the modeled area).
func (m *Manager) Remove(id VehicleID) {
	v := m.vehicle(id)
	if v == nil {
		return
	}
	v.gone = true
	m.laneOf(v).remove(v)
	m.vehicles[id] = nil
	if i, ok := slices.BinarySearch(m.ids, id); ok {
		m.ids = slices.Delete(m.ids, i, i+1)
	}
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
