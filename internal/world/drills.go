package world

import (
	"math/rand"

	"vcloud/internal/faults"
	"vcloud/internal/mobility"
	"vcloud/internal/sim"
	"vcloud/internal/store"
	"vcloud/internal/vnet"
)

// Departures is the permanent-departure churn drill: each Step one
// vehicle drives away for good, its disk with it, and once more than a
// third of the fleet is gone the longest-departed returns wiped. Its
// View is the storage membership over the injector's ground truth: the
// fleet minus departures, online unless cut from the vantage node.
type Departures struct {
	w        *World
	vantage  vnet.Addr
	fleet    []vnet.Addr
	departed map[vnet.Addr]sim.Time
}

// Departures arms the drill over the fleet, probing from vantage.
func (w *World) Departures(vantage vnet.Addr) *Departures {
	d := &Departures{w: w, vantage: vantage, departed: make(map[vnet.Addr]sim.Time)}
	for _, id := range w.Scenario.VehicleIDs() {
		d.fleet = append(d.fleet, vnet.Addr(id))
	}
	return d
}

// Gone reports whether a has departed and not come back.
func (d *Departures) Gone(a vnet.Addr) bool {
	_, gone := d.departed[a]
	return gone
}

// View is the storage view over the drill's fleet.
func (d *Departures) View() store.View {
	return store.FuncView{
		MembersFn: func() []vnet.Addr { return d.pool(nil) },
		OnlineFn:  func(a vnet.Addr) bool { return !d.Gone(a) && !d.w.Injector.Cut(d.vantage, a) },
	}
}

// pool lists the fleet still present, skip excepted, in address order.
func (d *Departures) pool(skip map[vnet.Addr]bool) []vnet.Addr {
	out := make([]vnet.Addr, 0, len(d.fleet))
	for _, a := range d.fleet {
		if !d.Gone(a) && !skip[a] {
			out = append(out, a)
		}
	}
	return out
}

// Step revives the longest-departed vehicle (lowest address on ties)
// when more than a third of the fleet is out, then departs one drawn by
// rng — never an active controller, the kill drills' business — and
// makes b forget its disk. It reports the revived and departed addresses
// (-1 for none).
func (d *Departures) Step(rng *rand.Rand, b store.Backend) (revived, departed vnet.Addr) {
	revived = -1
	if len(d.departed) > d.w.Spec.Vehicles/3 {
		for _, a := range d.fleet {
			if t, gone := d.departed[a]; gone && (revived < 0 || t < d.departed[revived]) {
				revived = a
			}
		}
		delete(d.departed, revived)
		d.w.Injector.Apply(faults.Event{Kind: faults.Recover, Target: int(revived)})
	}
	ctl := make(map[vnet.Addr]bool)
	if d.w.Cloud != nil {
		for _, c := range d.w.Cloud.ActiveControllers() {
			ctl[c.Addr()] = true
		}
	}
	pool := d.pool(ctl)
	if len(pool) == 0 {
		return revived, -1
	}
	departed = pool[rng.Intn(len(pool))]
	d.departed[departed] = d.w.Scenario.Kernel.Now()
	d.w.Injector.Apply(faults.Event{Kind: faults.Crash, Target: int(departed)})
	b.Forget(departed)
	return revived, departed
}

// KillMember is the member-kill drill: unless the cloud is down to half
// the fleet, it kills one member drawn by rng in ascending ID order —
// radio silence plus the member-kill hook, its running work dies with
// it. With rejoinAfter > 0 the radio recovers that much later and the
// cloud starts a wiped agent on the vehicle (Deployment.Rejoin).
func (w *World) KillMember(rng *rand.Rand, rejoinAfter sim.Time) (mobility.VehicleID, bool) {
	ids := w.memberIDs()
	if len(ids) <= w.Spec.Vehicles/2 {
		return 0, false
	}
	id := ids[rng.Intn(len(ids))]
	w.Injector.Apply(faults.Event{Kind: faults.KillMember, Target: int(id)})
	if rejoinAfter > 0 {
		w.Scenario.Kernel.After(rejoinAfter, func() {
			w.Injector.Apply(faults.Event{Kind: faults.Recover, Target: int(id)})
			// The vehicle ran an agent of this deployment before its
			// kill, so starting another cannot fail.
			_ = w.Cloud.Rejoin(id)
		})
	}
	return id, true
}
