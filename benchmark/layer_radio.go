package main

import (
	"vcloud"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

// Adapter for radio: the facade re-exports the uplink types but not the
// medium's counters or constructor.

type radioStats = radio.Stats

func radioDefaults() radio.Params { return radio.DefaultParams() }

// probeRadioSend times the medium's broadcast path per candidate
// receiver, over a fresh medium holding the workload's own fleet (same
// positions, same density). The range query inside Send is measured by
// the geo probe, so its cost is taken out here.
func probeRadioSend(layer map[string]float64, s *vcloud.Scenario) {
	ids, pos := worldPositions(s)
	if len(ids) < 2 {
		return
	}
	k := sim.NewKernel(1)
	m, err := radio.NewMedium(k, s.Network.Bounds(), s.Medium.Params())
	if err != nil {
		return
	}
	sink := func(radio.Frame) {}
	for i, id := range ids {
		m.Register(radio.NodeID(id), sink)
		m.UpdatePosition(radio.NodeID(id), pos[i])
	}
	rounds := 1 + 2000/len(ids)
	var t float64
	for r := 0; r < rounds; r++ {
		t += perCallNs(1, func() {
			for _, id := range ids {
				m.Send(radio.NodeID(id), radio.Broadcast, 300, nil)
			}
		})
		// Drain the scheduled receptions, untimed, so the delivery pool
		// recycles as it does in a run.
		_ = k.Run(k.Now() + sim.Time(1e9))
	}
	st := m.Stats()
	cand := float64(st.Delivered + st.LostRange + st.LostLoad)
	if cand == 0 {
		return
	}
	t -= float64(st.Sent) * layer["geo.probe_query_ns"]
	if t < 0 {
		t = 0
	}
	layer["radio.probe_send_ns_per_rx"] = t / cand
}
