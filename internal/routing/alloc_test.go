package routing

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// TestGreedyNextHopAllocFree: a forwarding decision copies the neighbor
// table into the router's own scratch and allocates nothing.
func TestGreedyNextHopAllocFree(t *testing.T) {
	k := sim.NewKernel(1)
	m, err := radio.NewMedium(k, geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: 900, Y: 100}), radio.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*vnet.Node
	for i := 0; i < 6; i++ {
		addr, pos := vnet.Addr(i), geo.Point{X: float64(i) * 140}
		m.UpdatePosition(addr, pos)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{BeaconPeriod: 200 * time.Millisecond},
			func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	var stats Stats
	g, err := NewGreedy(nodes[2], &stats, GeoConfig{Loc: OracleLoc{Positions: m}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := nodes[2].NewMessage(5, greedyKind, 100, geoTTL, Packet{DestPos: geo.Point{X: 5 * 140}})
	var next vnet.Addr
	var ok bool
	if allocs := testing.AllocsPerRun(100, func() { next, ok = g.nextHop(msg) }); allocs != 0 {
		t.Errorf("nextHop: %v allocs/op, want 0", allocs)
	}
	if !ok || next != 3 {
		t.Errorf("nextHop = %d, %v; want the neighbor one step closer (3)", next, ok)
	}
}
