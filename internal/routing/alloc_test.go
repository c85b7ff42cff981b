package routing

import (
	"testing"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// beaconedLine puts n static nodes on a line, spacing meters apart, and
// beacons for two seconds so every node knows its in-range neighbors.
func beaconedLine(tb testing.TB, n int, spacing float64) (*radio.Medium, []*vnet.Node) {
	tb.Helper()
	k := sim.NewKernel(1)
	bounds := geo.NewRect(geo.Point{X: -100, Y: -100}, geo.Point{X: float64(n)*spacing + 100, Y: 100})
	m, err := radio.NewMedium(k, bounds, radio.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	var nodes []*vnet.Node
	for i := 0; i < n; i++ {
		addr, pos := vnet.Addr(i), geo.Point{X: float64(i) * spacing}
		m.UpdatePosition(addr, pos)
		node, err := vnet.NewNode(k, m, addr, vnet.Config{BeaconPeriod: 200 * time.Millisecond},
			func() (geo.Point, float64, float64) { return pos, 0, 0 })
		if err != nil {
			tb.Fatal(err)
		}
		if err := node.Start(); err != nil {
			tb.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	if err := k.Run(2 * time.Second); err != nil {
		tb.Fatal(err)
	}
	return m, nodes
}

// TestGreedyNextHopAllocFree: a forwarding decision reads the neighbor
// table in place and allocates nothing.
func TestGreedyNextHopAllocFree(t *testing.T) {
	m, nodes := beaconedLine(t, 6, 140)
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

var sinkHop vnet.Addr

// BenchmarkGreedyNextHop times one forwarding decision over a 50-row
// neighbor table: the closest-to-destination scan over the live rows,
// with a destination that is nobody's neighbor so the scan runs to the
// end.
func BenchmarkGreedyNextHop(b *testing.B) {
	m, nodes := beaconedLine(b, 51, 3)
	if got := len(nodes[0].Neighbors(nil)); got != 50 {
		b.Fatalf("neighbor table has %d rows, want 50", got)
	}
	var stats Stats
	g, err := NewGreedy(nodes[0], &stats, GeoConfig{Loc: OracleLoc{Positions: m}}, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := nodes[0].NewMessage(999, greedyKind, 100, geoTTL, Packet{DestPos: geo.Point{X: 1000}})
	if _, ok := g.nextHop(msg); !ok {
		b.Fatal("no neighbor makes progress")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkHop, _ = g.nextHop(msg)
	}
}
