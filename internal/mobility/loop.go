package mobility

import (
	"fmt"

	"vcloud/internal/roadnet"
)

// AddLoopVehicle places a vehicle that drives the given closed route
// forever — the bus lines Sun et al. [36] exploit as a predictable
// message-delivery backbone in urban VANETs. The route must be
// contiguous and closed (the last edge must end where the first
// begins). Loop vehicles are maximally predictable: their dwell in any
// region is exactly periodic, which makes them ideal relays and cloud
// anchors.
func (m *Manager) AddLoopVehicle(route []roadnet.EdgeID, offset float64, profile Profile) (VehicleID, error) {
	if len(route) < 2 {
		return 0, fmt.Errorf("mobility: loop route needs at least 2 edges, got %d", len(route))
	}
	for _, e := range route {
		if int(e) >= m.net.NumEdges() || e < 0 {
			return 0, fmt.Errorf("mobility: loop edge %d out of range", e)
		}
	}
	for i, e := range route {
		next := route[(i+1)%len(route)]
		if m.net.Edge(e).To != m.net.Edge(next).From {
			return 0, fmt.Errorf("mobility: loop not contiguous at position %d (edge %d -> %d)", i, e, next)
		}
	}
	id, err := m.AddVehicle(route[0], offset, profile)
	if err != nil {
		return 0, err
	}
	v := m.vehicles[id]
	v.loop = append([]roadnet.EdgeID(nil), route...)
	// Replace the random trip with the loop continuation.
	v.route = v.loop[1:]
	v.routeIdx = 0
	return id, nil
}

// OnLoop reports whether the vehicle drives a fixed loop.
func (m *Manager) OnLoop(id VehicleID) bool {
	v := m.vehicle(id)
	return v != nil && v.loop != nil
}
