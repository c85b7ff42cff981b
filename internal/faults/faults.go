// Package faults is the deterministic fault-injection subsystem: it
// schedules infrastructure failures — node crashes and recoveries, RSU
// outages, region-scoped radio partitions, message-loss bursts,
// controller and member kills, Byzantine flips and uplink loss bursts
// and outages — against the discrete-event kernel, from a
// programmatic Plan or the textual plan language cmd/vcloudsim accepts
// via -faults. Every fault, planned or drawn during a run, is an Event
// applied by Injector.Apply, whose log is itself a plan.
//
// The paper's dependability argument (§III, §V.A) is that a vehicular
// cloud must keep operating when the infrastructure it leans on fails
// mid-run. Making that claim measurable requires failures that are (a)
// scripted, so the same disaster replays exactly, and (b) seeded, so any
// probabilistic element (loss bursts) draws from the kernel's
// reproducible streams. Every radio fault here is an entry in the radio
// medium's fault table (radio.FaultTable), which the medium reads on
// every frame, so a "crashed" node is radio-silent yet recoverable.
package faults

import (
	"fmt"
	"math"
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
	// frame from or to it is dropped until Recover, or until it heals
	// after Dur.
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
	// Lie turns the Byzantine worker at address Target lying, through
	// the lie hook (OnLie); Honest turns it honest again.
	Lie    Kind = "lie"
	Honest Kind = "honest"
	// UplinkLoss sets the attached uplink's (AttachUplink) per-message
	// loss to Prob, in [0,1); UplinkDown takes it down. Each heals after
	// Dur, or never when Dur is zero: the newest event of its kind
	// restores the loss the uplink was attached with, or brings it back
	// up, and an older one's heal does nothing once a newer has begun.
	UplinkLoss Kind = "uplink-loss"
	UplinkDown Kind = "uplink-down"
)

// Event is one scheduled fault.
type Event struct {
	// At is when the fault strikes.
	At sim.Time
	// Kind selects the action.
	Kind Kind
	// Target is the vehicle ID (Crash/Recover/KillMember), RSU index
	// (RSUDown/RSUUp), controller index (KillController) or node address
	// (Isolate/Lie/Honest); the other kinds take none.
	Target int
	// Center and Radius define the Partition region in meters.
	Center geo.Point
	Radius float64
	// Prob is the Loss drop probability in [0,1], or the UplinkLoss one
	// in [0,1).
	Prob float64
	// Keep lists node addresses isolated together with Target (Isolate
	// only): they stay reachable from Target but are cut from the rest.
	Keep []int
	// Dur auto-heals Crash, Partition, Loss, Isolate, UplinkLoss and
	// UplinkDown events; zero means "until the end of the run". Other
	// kinds take none.
	Dur sim.Time
}

// heals reports whether the kind takes a duration.
func (k Kind) heals() bool { return strings.HasSuffix(usage[k], "[dur]") }

// targeted reports whether the kind names a node, RSU or controller.
func (k Kind) targeted() bool {
	return k != Partition && k != Loss && k != UplinkLoss && k != UplinkDown
}

// String renders the event in the plan language (parseable by Parse).
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", e.At, e.Kind)
	switch {
	case e.Kind.targeted():
		fmt.Fprintf(&b, " %d", e.Target)
		for _, k := range e.Keep {
			fmt.Fprintf(&b, ",%d", k)
		}
	case e.Kind == Partition:
		fmt.Fprintf(&b, " %g,%g %g", e.Center.X, e.Center.Y, e.Radius)
	case e.Kind == Loss || e.Kind == UplinkLoss:
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
	case Crash, Recover, RSUDown, RSUUp, KillController, KillMember, Isolate, Lie, Honest:
		if e.Target < 0 {
			return fmt.Errorf("faults: %s target must be >= 0, got %d", e.Kind, e.Target)
		}
		if len(e.Keep) > 0 && e.Kind != Isolate {
			return fmt.Errorf("faults: %s keeps no peers, got %v", e.Kind, e.Keep)
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
	case UplinkLoss:
		// The uplink refuses a certain loss: NewUplink takes [0,1).
		if !isFinite(e.Prob) || e.Prob < 0 || e.Prob >= 1 {
			return fmt.Errorf("faults: uplink-loss probability must be in [0,1), got %v", e.Prob)
		}
	case UplinkDown:
	default:
		return fmt.Errorf("faults: unknown kind %q", e.Kind)
	}
	if !e.Kind.targeted() && (e.Target != 0 || len(e.Keep) > 0) {
		return fmt.Errorf("faults: %s takes no target, got %d %v", e.Kind, e.Target, e.Keep)
	}
	if e.Dur < 0 {
		return fmt.Errorf("faults: duration must be >= 0, got %v", e.Dur)
	}
	if e.Dur > 0 && !e.Kind.heals() {
		return fmt.Errorf("faults: %s takes no duration, got %v", e.Kind, e.Dur)
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
	// Applied counts fault events that fired and the heals that ended them.
	Applied int
	// DroppedFrames counts frames the active faults suppressed.
	DroppedFrames uint64
}

// Injector applies fault events to a scenario: it writes the radio
// medium's fault table, heals timed faults and logs both. Every fault
// goes through Apply, now or, by Schedule, at its event's time.
type Injector struct {
	s     *scenario.Scenario
	table *radio.FaultTable

	killCtl func(idx int)
	killMem func(id int)
	lie     func(addr int, on bool)
	log     []string

	// uplink is the link the uplink kinds drive, upLoss the loss it was
	// attached with. upLossSeq and upDownSeq number the uplink-loss and
	// uplink-down events applied: only the newest one's heal acts.
	uplink               *radio.Uplink
	upLoss               float64
	upLossSeq, upDownSeq uint64

	// crashes lists each node's active timed crashes; held marks the
	// nodes an untimed down (crash, rsu-down, kill-member, CrashNode)
	// keeps down. An up (recover, rsu-up, RecoverNode) clears both, so
	// a timed crash's heal revives its node only when neither holds it.
	crashes map[radio.NodeID][]*Event
	held    map[radio.NodeID]bool
}

// NewInjector creates an injector over the scenario's medium. The fault
// table belongs to the medium, so injectors over one scenario share it.
func NewInjector(s *scenario.Scenario) (*Injector, error) {
	if s == nil {
		return nil, fmt.Errorf("faults: scenario must not be nil")
	}
	return &Injector{
		s:       s,
		table:   s.Medium.Faults(),
		crashes: make(map[radio.NodeID][]*Event),
		held:    make(map[radio.NodeID]bool),
	}, nil
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

// OnLie installs the hook Lie and Honest events invoke with the node
// address and whether it now lies. The world wires it to the Byzantine
// worker's SetActive.
func (in *Injector) OnLie(fn func(addr int, on bool)) { in.lie = fn }

// AttachUplink hands the uplink kinds their link. Their heals restore
// the loss u has now.
func (in *Injector) AttachUplink(u *radio.Uplink) {
	in.uplink, in.upLoss = u, u.Params().LossProb
}

// Close clears the medium's fault table; active radio faults stop
// applying. An attached uplink and the Byzantine workers keep their
// state.
func (in *Injector) Close() {
	in.table.Reset()
	clear(in.crashes)
	clear(in.held)
}

// Stats returns a copy of the injector counters.
func (in *Injector) Stats() Stats {
	return Stats{Applied: len(in.log), DroppedFrames: in.table.Dropped()}
}

// Log returns the applied-fault log: each applied event as its plan
// line, each heal as a '#' comment line. Parse reads it back to exactly
// the events that were applied, in order.
func (in *Injector) Log() []string { return slices.Clone(in.log) }

// Schedule validates the plan and applies every event at its time. It
// refuses a plan holding a kind whose hook or uplink is not installed.
func (in *Injector) Schedule(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, e := range p {
		if err := in.ready(e.Kind); err != nil {
			return err
		}
	}
	for _, e := range p {
		in.s.Kernel.At(e.At, func() { in.Apply(e) })
	}
	return nil
}

// Apply applies e now, whatever its At, and logs it at the current time.
// A timed fault (Dur > 0) heals itself after Dur. The returned heal ends
// the fault sooner; only its first call acts, and it does nothing for an
// untimed crash (a recover ends that) or a kind that takes no duration.
// Apply panics on an event Validate rejects or whose hook or uplink is
// not installed.
func (in *Injector) Apply(e Event) (heal func()) {
	if err := e.Validate(); err != nil {
		panic(err)
	}
	if err := in.ready(e.Kind); err != nil {
		panic(err)
	}
	e.At = in.s.Kernel.Now()
	in.log = append(in.log, e.String())
	undo := in.apply(e)
	if undo == nil {
		return func() {}
	}
	healed := false
	heal = func() {
		if healed {
			return
		}
		healed = true
		in.log = append(in.log, fmt.Sprintf("# %s healed: %s", in.s.Kernel.Now(), e))
		undo()
	}
	if e.Dur > 0 {
		in.s.Kernel.After(e.Dur, heal)
	}
	return heal
}

// ready reports whether the hook or uplink kind k drives is installed.
func (in *Injector) ready(k Kind) error {
	if k == KillController && in.killCtl == nil || k == KillMember && in.killMem == nil ||
		(k == Lie || k == Honest) && in.lie == nil || (k == UplinkLoss || k == UplinkDown) && in.uplink == nil {
		return fmt.Errorf("faults: %s needs a hook or an uplink the injector does not have", k)
	}
	return nil
}

// apply writes e into the fault table and returns what undoes it, or nil
// for a kind that takes no duration. A timed crash's undo ends only its
// own crash: the node recovers once no other timed crash of it is active
// and no untimed down holds it.
func (in *Injector) apply(e Event) (undo func()) {
	addr := radio.NodeID(e.Target)
	switch e.Kind {
	case Crash:
		if e.Dur == 0 {
			in.CrashNode(addr)
			return nil
		}
		crash := &e // this application's own entry
		in.crashes[addr] = append(in.crashes[addr], crash)
		in.table.Crash(addr)
		return func() {
			n := len(in.crashes[addr])
			left := slices.DeleteFunc(in.crashes[addr], func(c *Event) bool { return c == crash })
			if len(left) > 0 {
				in.crashes[addr] = left
				return
			}
			delete(in.crashes, addr)
			// A recover since this crash has already ended it.
			if n == 1 && !in.held[addr] {
				in.table.Recover(addr)
			}
		}
	case Recover:
		in.RecoverNode(addr)
	case RSUDown, RSUUp:
		// An out-of-range index is logged and applies as a no-op.
		if e.Target >= len(in.s.RSUs) {
			return nil
		}
		if rsu := in.s.RSUs[e.Target].Addr(); e.Kind == RSUDown {
			in.CrashNode(rsu)
		} else {
			in.RecoverNode(rsu)
		}
	case Partition:
		return in.table.Partition(e.Center, e.Radius)
	case Isolate:
		set := map[radio.NodeID]bool{addr: true}
		for _, k := range e.Keep {
			set[radio.NodeID(k)] = true
		}
		return in.table.Isolate(set)
	case Loss:
		in.table.SetLoss(e.Prob)
		return func() { in.table.SetLoss(0) }
	case KillController:
		in.killCtl(e.Target)
	case KillMember:
		in.CrashNode(addr)
		in.killMem(e.Target)
	case Lie, Honest:
		in.lie(e.Target, e.Kind == Lie)
	case UplinkLoss:
		in.uplink.SetLossProb(e.Prob)
		return newest(&in.upLossSeq, func() { in.uplink.SetLossProb(in.upLoss) })
	case UplinkDown:
		in.uplink.SetAvailable(false)
		return newest(&in.upDownSeq, func() { in.uplink.SetAvailable(true) })
	}
	return nil
}

// newest numbers one more event of a kind in *seq and returns its undo,
// which acts only while no newer event of the kind has begun.
func newest(seq *uint64, undo func()) func() {
	*seq++
	mine := *seq
	return func() {
		if *seq == mine {
			undo()
		}
	}
}

// CrashNode silences a node until its recover, outside the log.
func (in *Injector) CrashNode(addr radio.NodeID) {
	in.held[addr] = true
	in.table.Crash(addr)
}

// RecoverNode restores a silenced node, outside the log. It ends every
// down of the node, timed crashes included.
func (in *Injector) RecoverNode(addr radio.NodeID) {
	delete(in.crashes, addr)
	delete(in.held, addr)
	in.table.Recover(addr)
}

// Cut reports whether frames between from and to are currently severed
// by a deterministic fault — a crash on either end, an isolation or a
// partition boundary between them. It is the medium's own frame-path
// predicate (radio.Medium.Cut), so it cannot drift from what frames
// see, and it never draws from the loss stream, so layers above (the
// storage service's membership view, invariant checkers) can probe
// reachability without perturbing the reproducible loss sequence.
func (in *Injector) Cut(from, to radio.NodeID) bool { return in.s.Medium.Cut(from, to) }
