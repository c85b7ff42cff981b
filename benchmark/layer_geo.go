package main

import (
	"vcloud"
	"vcloud/internal/geo"
)

// Adapter for geo: the facade re-exports Point only; the index probes
// need the grid itself.

// worldPositions snapshots where every node of the world ended.
func worldPositions(s *vcloud.Scenario) (ids []int32, pos []geo.Point) {
	for _, id := range s.VehicleIDs() {
		if p, ok := s.Medium.Position(addr(id)); ok {
			ids = append(ids, int32(id))
			pos = append(pos, p)
		}
	}
	for _, n := range s.RSUs {
		ids = append(ids, int32(n.Addr()))
		pos = append(pos, n.Position())
	}
	return ids, pos
}

// probeGeo times index updates and range queries over the workload's own
// fleet: same positions, same density, same cell size as the radio's
// index.
func probeGeo(layer map[string]float64, s *vcloud.Scenario) {
	ids, pos := worldPositions(s)
	if len(ids) == 0 {
		return
	}
	r := s.Medium.Params().RangeMax
	idx, err := geo.NewGridIndex(s.Network.Bounds(), r)
	if err != nil {
		return
	}
	for i, id := range ids {
		idx.Update(id, pos[i])
	}
	rounds := 1 + 200_000/len(ids)
	// One kinematics step moves a vehicle a metre or so: mostly within a
	// cell, now and then across a border.
	layer["geo.probe_update_ns"] = perCallNs(rounds*len(ids), func() {
		for k := 0; k < rounds; k++ {
			d := float64(k%7) * 1.3
			for i, id := range ids {
				idx.Update(id, geo.Point{X: pos[i].X + d, Y: pos[i].Y + d})
			}
		}
	})
	for i, id := range ids {
		idx.Update(id, pos[i])
	}
	qr := 1 + 20_000/len(ids)
	var scratch []int32
	layer["geo.probe_query_ns"] = perCallNs(qr*len(ids), func() {
		for k := 0; k < qr; k++ {
			for i, id := range ids {
				scratch = idx.WithinRange(scratch[:0], pos[i], r, id)
			}
		}
	})
}

// rectAt builds the axis-aligned rectangle with the given corner and size
// (the facade re-exports Point but not Rect).
func rectAt(x, y, w, h float64) geo.Rect {
	return geo.NewRect(geo.Point{X: x, Y: y}, geo.Point{X: x + w, Y: y + h})
}
