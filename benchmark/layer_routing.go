package main

import (
	"time"

	"vcloud"
	"vcloud/internal/routing"
)

// Adapter for routing: the facade has no router constructor.

type (
	routingStats = routing.Stats
	router       = routing.Router
)

// routingLoc is the location service all routers of one world share:
// origination sees positions up to 20 s stale, zone heads see fresh ones.
type routingLoc struct {
	stale  *routing.StaleLoc
	oracle routing.OracleLoc
}

func newRoutingLoc(s *vcloud.Scenario) routingLoc {
	oracle := routing.OracleLoc{Positions: s.Medium}
	return routingLoc{stale: routing.NewStaleLoc(oracle, s.Kernel.Now, 20*time.Second), oracle: oracle}
}

// newZoneRouter attaches a moving-zone (MoZo) router to a node. deliver
// fires at the destination with the op id the packet carried. carry is
// how long a packet that meets a void may wait for a forwarding chance.
func newZoneRouter(node *vcloud.Node, st *routingStats, loc routingLoc, r *clusterRunner, carry time.Duration, deliver func(op int, hops int)) (router, error) {
	return routing.NewMoZo(node, st, routing.GeoConfig{Loc: loc.stale, ZoneLoc: loc.oracle, CarryTimeout: carry}, r.State,
		func(_ addr, data any, _ vcloud.Duration, hops int) {
			if id, ok := data.(int); ok {
				deliver(id, hops)
			}
		})
}
