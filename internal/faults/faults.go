// Package faults is the deterministic fault-injection subsystem: it
// schedules infrastructure failures — node crashes and recoveries, RSU
// outages, region-scoped radio partitions, message-loss bursts and
// controller kills — against the discrete-event kernel, from a
// programmatic Plan or the textual plan language cmd/vcloudsim accepts
// via -faults.
//
// The paper's dependability argument (§III, §V.A) is that a vehicular
// cloud must keep operating when the infrastructure it leans on fails
// mid-run. Making that claim measurable requires failures that are (a)
// scripted, so the same disaster replays exactly, and (b) seeded, so any
// probabilistic element (loss bursts) draws from the kernel's
// reproducible streams. Every fault here acts through the radio medium's
// stackable frame filters (radio.Medium.AddBlocker), so a "crashed" node
// is radio-silent yet recoverable, and fault injection composes with
// whatever SetBlocked filter an attack experiment already installed.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"vcloud/internal/geo"
	"vcloud/internal/radio"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
)

// Kind names a fault action.
type Kind string

// Fault kinds.
const (
	// Crash makes a vehicle radio-silent (process + radio failure): every
	// frame from or to it is dropped until Recover.
	Crash Kind = "crash"
	// Recover undoes Crash for a vehicle.
	Recover Kind = "recover"
	// RSUDown makes a road-side unit radio-silent until RSUUp; the target
	// is the RSU's creation index (scenario.RSUs order).
	RSUDown Kind = "rsu-down"
	// RSUUp undoes RSUDown.
	RSUUp Kind = "rsu-up"
	// Partition isolates a circular region: frames crossing the region
	// boundary are dropped (traffic wholly inside or wholly outside still
	// flows). Heals after Dur, or never when Dur is zero.
	Partition Kind = "partition"
	// Loss drops every frame independently with probability Prob, drawn
	// from the kernel's "faults" stream. Ends after Dur, or never when
	// Dur is zero.
	Loss Kind = "loss"
	// KillController invokes the injector's controller-kill hook with
	// Target as the controller index — the cloud layer decides what a
	// dead controller means (see vcloud.Controller.Crash).
	KillController Kind = "kill-controller"
	// KillMember kills the cloud-member process on a vehicle: the node
	// goes radio-silent like Crash AND the member-kill hook
	// (OnMemberKill) fires with Target as the vehicle ID, so the cloud
	// layer can stop the member agent — abandoning its running work —
	// instead of merely muting its radio. A crashed member's compute
	// survives a radio outage; a killed member's does not.
	KillMember Kind = "kill-member"
	// Isolate cuts every frame crossing the boundary of a node set:
	// Target (plus the optional Keep peers) on one side, everyone else
	// on the other. Unlike Partition it is node-targeted, not
	// region-scoped — the split-brain primitive that cuts a controller
	// off from its standby while both keep reachable neighbours. Heals
	// after Dur, or never when Dur is zero.
	Isolate Kind = "isolate"
)

// Event is one scheduled fault.
type Event struct {
	// At is when the fault strikes.
	At sim.Time
	// Kind selects the action.
	Kind Kind
	// Target is the vehicle ID (Crash/Recover), RSU index (RSUDown/RSUUp)
	// or controller index (KillController).
	Target int
	// Center and Radius define the Partition region in meters.
	Center geo.Point
	Radius float64
	// Prob is the Loss drop probability in [0,1].
	Prob float64
	// Keep lists node addresses isolated together with Target (Isolate
	// only): they stay reachable from Target but are cut from the rest.
	Keep []int
	// Dur auto-heals Partition, Loss and Isolate events; zero means
	// "until the end of the run".
	Dur sim.Time
}

// String renders the event in the plan language (parseable by Parse).
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", e.At, e.Kind)
	switch e.Kind {
	case Crash, Recover, RSUDown, RSUUp, KillController, KillMember:
		fmt.Fprintf(&b, " %d", e.Target)
	case Isolate:
		fmt.Fprintf(&b, " %d", e.Target)
		for _, k := range e.Keep {
			fmt.Fprintf(&b, ",%d", k)
		}
	case Partition:
		fmt.Fprintf(&b, " %g,%g %g", e.Center.X, e.Center.Y, e.Radius)
	case Loss:
		fmt.Fprintf(&b, " %g", e.Prob)
	}
	if e.Dur > 0 {
		fmt.Fprintf(&b, " %s", e.Dur)
	}
	return b.String()
}

// Validate checks one event's sanity.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("faults: event time must be >= 0, got %v", e.At)
	}
	switch e.Kind {
	case Crash, Recover, RSUDown, RSUUp, KillController, KillMember:
		if e.Target < 0 {
			return fmt.Errorf("faults: %s target must be >= 0, got %d", e.Kind, e.Target)
		}
	case Isolate:
		if e.Target < 0 {
			return fmt.Errorf("faults: %s target must be >= 0, got %d", e.Kind, e.Target)
		}
		for _, k := range e.Keep {
			if k < 0 {
				return fmt.Errorf("faults: %s keep address must be >= 0, got %d", e.Kind, k)
			}
		}
	case Partition:
		// NaN compares false against everything, so the range checks
		// must reject non-finite values explicitly — ParseFloat happily
		// produces NaN/Inf from plan text like "partition NaN,0 Inf".
		if !isFinite(e.Radius) || e.Radius <= 0 {
			return fmt.Errorf("faults: partition radius must be positive and finite, got %v", e.Radius)
		}
		if !isFinite(e.Center.X) || !isFinite(e.Center.Y) {
			return fmt.Errorf("faults: partition center must be finite, got %g,%g", e.Center.X, e.Center.Y)
		}
	case Loss:
		if !isFinite(e.Prob) || e.Prob < 0 || e.Prob > 1 {
			return fmt.Errorf("faults: loss probability must be in [0,1], got %v", e.Prob)
		}
	default:
		return fmt.Errorf("faults: unknown kind %q", e.Kind)
	}
	if e.Dur < 0 {
		return fmt.Errorf("faults: duration must be >= 0, got %v", e.Dur)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Plan is an ordered fault schedule. Events at equal times apply in plan
// order (the kernel breaks timestamp ties by scheduling sequence).
type Plan []Event

// Validate checks every event.
func (p Plan) Validate() error {
	for i, e := range p {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// String renders the plan one event per line, in the plan language.
func (p Plan) String() string {
	lines := make([]string, len(p))
	for i, e := range p {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}

// Stats reports what the injector did.
type Stats struct {
	// Applied counts fault events that fired (including auto-heals).
	Applied int
	// DroppedFrames counts frames the active faults suppressed.
	DroppedFrames uint64
}

// Injector binds fault plans to a scenario: it installs one stackable
// frame filter on the radio medium and schedules plan events on the
// kernel. One injector serves any number of Schedule calls.
type Injector struct {
	s   *scenario.Scenario
	rng *rand.Rand

	// dead holds radio-silenced node addresses (crashed vehicles and
	// downed RSUs).
	dead map[radio.NodeID]bool
	// partitions and isolations hold the active region and node-set
	// isolations in install order; a heal removes its entry by id.
	partitions []partitionRegion
	isolations []isolation
	nextID     int
	lossProb   float64

	killCtl func(idx int)
	killMem func(id int)
	remove  func()
	log     []string
	stats   Stats
}

type partitionRegion struct {
	id     int
	center geo.Point
	radius float64
}

type isolation struct {
	id  int
	set map[radio.NodeID]bool
}

// NewInjector creates an injector over the scenario and installs its
// frame filter on the medium.
func NewInjector(s *scenario.Scenario) (*Injector, error) {
	if s == nil {
		return nil, fmt.Errorf("faults: scenario must not be nil")
	}
	in := &Injector{
		s:    s,
		rng:  s.Kernel.NewStream("faults"),
		dead: make(map[radio.NodeID]bool),
	}
	in.remove = s.Medium.AddBlocker(in.blocked)
	return in, nil
}

// OnControllerKill installs the hook KillController events invoke. The
// cloud layer typically wires this to Controller.Crash on the indexed
// active controller.
func (in *Injector) OnControllerKill(fn func(idx int)) { in.killCtl = fn }

// OnMemberKill installs the hook KillMember events invoke with the
// vehicle ID, on top of the radio silence the event itself applies. The
// cloud layer typically wires this to Member.Stop on the vehicle's
// member agent.
func (in *Injector) OnMemberKill(fn func(id int)) { in.killMem = fn }

// Close removes the injector's frame filter; active faults stop applying.
func (in *Injector) Close() {
	if in.remove != nil {
		in.remove()
		in.remove = nil
	}
}

// Stats returns a copy of the injector counters.
func (in *Injector) Stats() Stats { return in.stats }

// Log returns the applied-fault log, one line per fired event.
func (in *Injector) Log() []string {
	out := make([]string, len(in.log))
	copy(out, in.log)
	return out
}

// Schedule validates the plan and schedules every event on the kernel.
// KillController events require a hook (OnControllerKill) to be
// installed first.
func (in *Injector) Schedule(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, e := range p {
		if e.Kind == KillController && in.killCtl == nil {
			return fmt.Errorf("faults: plan contains %s but no controller-kill hook is installed", KillController)
		}
	}
	for _, e := range p {
		e := e
		in.s.Kernel.At(e.At, func() { in.apply(e) })
	}
	return nil
}

func (in *Injector) apply(e Event) {
	in.stats.Applied++
	in.log = append(in.log, fmt.Sprintf("%s %s", in.s.Kernel.Now(), e.describe()))
	switch e.Kind {
	case Crash:
		in.CrashNode(radio.NodeID(e.Target))
	case Recover:
		in.RecoverNode(radio.NodeID(e.Target))
	case RSUDown:
		if addr, ok := in.rsuAddr(e.Target); ok {
			in.CrashNode(addr)
		}
	case RSUUp:
		if addr, ok := in.rsuAddr(e.Target); ok {
			in.RecoverNode(addr)
		}
	case Partition:
		heal := in.StartPartition(e.Center, e.Radius)
		if e.Dur > 0 {
			in.s.Kernel.After(e.Dur, func() {
				in.stats.Applied++
				in.log = append(in.log, fmt.Sprintf("%s partition healed at %g,%g", in.s.Kernel.Now(), e.Center.X, e.Center.Y))
				heal()
			})
		}
	case Isolate:
		keep := make([]radio.NodeID, 0, len(e.Keep))
		for _, k := range e.Keep {
			keep = append(keep, radio.NodeID(k))
		}
		heal := in.StartIsolation(radio.NodeID(e.Target), keep)
		if e.Dur > 0 {
			in.s.Kernel.After(e.Dur, func() {
				in.stats.Applied++
				in.log = append(in.log, fmt.Sprintf("%s isolation healed around %d", in.s.Kernel.Now(), e.Target))
				heal()
			})
		}
	case Loss:
		in.SetLoss(e.Prob)
		if e.Dur > 0 {
			in.s.Kernel.After(e.Dur, func() {
				in.stats.Applied++
				in.log = append(in.log, fmt.Sprintf("%s loss burst ended", in.s.Kernel.Now()))
				in.SetLoss(0)
			})
		}
	case KillController:
		if in.killCtl != nil {
			in.killCtl(e.Target)
		}
	case KillMember:
		in.CrashNode(radio.NodeID(e.Target))
		if in.killMem != nil {
			in.killMem(e.Target)
		}
	}
}

func (e Event) describe() string {
	switch e.Kind {
	case Isolate:
		d := "until end"
		if e.Dur > 0 {
			d = fmt.Sprintf("for %s", e.Dur)
		}
		return fmt.Sprintf("isolate %d with %d kept peers (%s)", e.Target, len(e.Keep), d)
	case Partition:
		d := "until end"
		if e.Dur > 0 {
			d = fmt.Sprintf("for %s", e.Dur)
		}
		return fmt.Sprintf("partition r=%gm at %g,%g (%s)", e.Radius, e.Center.X, e.Center.Y, d)
	case Loss:
		d := "until end"
		if e.Dur > 0 {
			d = fmt.Sprintf("for %s", e.Dur)
		}
		return fmt.Sprintf("loss p=%g (%s)", e.Prob, d)
	default:
		return fmt.Sprintf("%s %d", e.Kind, e.Target)
	}
}

// rsuAddr resolves an RSU creation index to its address.
func (in *Injector) rsuAddr(idx int) (radio.NodeID, bool) {
	if idx < 0 || idx >= len(in.s.RSUs) {
		return 0, false
	}
	return in.s.RSUs[idx].Addr(), true
}

// CrashNode silences a node immediately (programmatic form of Crash /
// RSUDown).
func (in *Injector) CrashNode(addr radio.NodeID) { in.dead[addr] = true }

// KillMember kills a vehicle's member process immediately (programmatic
// form of the KillMember event): radio silence plus the member-kill
// hook, so the cloud layer stops the member agent and its running work
// dies with it.
func (in *Injector) KillMember(id int) {
	in.CrashNode(radio.NodeID(id))
	if in.killMem != nil {
		in.killMem(id)
	}
}

// RecoverNode restores a silenced node.
func (in *Injector) RecoverNode(addr radio.NodeID) { delete(in.dead, addr) }

// Crashed reports whether a node is currently radio-silenced.
func (in *Injector) Crashed(addr radio.NodeID) bool { return in.dead[addr] }

// SetLoss sets the global frame-drop probability (0 disables).
func (in *Injector) SetLoss(p float64) { in.lossProb = p }

// StartPartition isolates a circular region immediately and returns a
// heal function (programmatic form of Partition).
func (in *Injector) StartPartition(center geo.Point, radius float64) (heal func()) {
	id := in.nextID
	in.nextID++
	in.partitions = append(in.partitions, partitionRegion{id: id, center: center, radius: radius})
	return func() {
		in.partitions = slices.DeleteFunc(in.partitions, func(r partitionRegion) bool { return r.id == id })
	}
}

// StartIsolation cuts the node set {center} ∪ keep off from every other
// node immediately and returns a heal function (programmatic form of
// Isolate). Traffic inside the set, and among the outsiders, still
// flows — the targeted split-brain cut.
func (in *Injector) StartIsolation(center radio.NodeID, keep []radio.NodeID) (heal func()) {
	set := map[radio.NodeID]bool{center: true}
	for _, k := range keep {
		set[k] = true
	}
	id := in.nextID
	in.nextID++
	in.isolations = append(in.isolations, isolation{id: id, set: set})
	return func() {
		in.isolations = slices.DeleteFunc(in.isolations, func(iso isolation) bool { return iso.id == id })
	}
}

// Cut reports whether frames between from and to are currently severed
// by a deterministic fault — a crash on either end, an isolation or a
// partition boundary between them. Unlike the frame filter it never
// draws from the loss stream, so layers above (the storage service's
// membership view, invariant checkers) can probe reachability without
// perturbing the reproducible loss sequence.
//
//vcloudlint:hotpath the storage views probe it once per member per placement, read and repaired key
func (in *Injector) Cut(from, to radio.NodeID) bool {
	if in.dead[from] || in.dead[to] {
		return true
	}
	if len(in.isolations) > 0 && in.isolationCut(from, to) {
		return true
	}
	if len(in.partitions) > 0 && in.partitionCut(from, to) {
		return true
	}
	return false
}

// blocked is the frame filter: crash silences, isolations and partitions
// cut boundary crossings, loss bursts drop at random. Checks run in a
// fixed order so the loss stream's draws stay reproducible.
//
//vcloudlint:hotpath the medium asks it once per frame and receiver
func (in *Injector) blocked(from, to radio.NodeID) bool {
	if len(in.dead) > 0 && (in.dead[from] || in.dead[to]) {
		in.stats.DroppedFrames++
		return true
	}
	if len(in.isolations) > 0 && in.isolationCut(from, to) {
		in.stats.DroppedFrames++
		return true
	}
	if len(in.partitions) > 0 && in.partitionCut(from, to) {
		in.stats.DroppedFrames++
		return true
	}
	if in.lossProb > 0 && in.rng.Float64() < in.lossProb {
		in.stats.DroppedFrames++
		return true
	}
	return false
}

func (in *Injector) isolationCut(from, to radio.NodeID) bool {
	for _, iso := range in.isolations {
		if iso.set[from] != iso.set[to] {
			return true
		}
	}
	return false
}

func (in *Injector) partitionCut(from, to radio.NodeID) bool {
	fp, fok := in.s.Medium.Position(from)
	tp, tok := in.s.Medium.Position(to)
	if !fok || !tok {
		return false
	}
	for _, r := range in.partitions {
		if (fp.Dist(r.center) <= r.radius) != (tp.Dist(r.center) <= r.radius) {
			return true
		}
	}
	return false
}
