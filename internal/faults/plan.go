package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vcloud/internal/geo"
	"vcloud/internal/sim"
)

// Parse reads a plan in the textual plan language: one event per entry,
// entries separated by newlines or semicolons, '#' starts a comment.
//
// Each entry is "<time> <kind> <args...>", with times and durations in
// Go duration syntax:
//
//	30s  crash 5              # vehicle 5 radio-dead
//	50s  recover 5
//	35s  crash 7 8s           # vehicle 7 radio-dead for 8s
//	30s  rsu-down 0           # RSU by creation index
//	60s  rsu-up 0
//	40s  partition 1500,0 400 20s   # isolate r=400m around (1500,0) for 20s
//	45s  isolate 3 12s              # cut node 3 off from everyone for 12s
//	45s  isolate 3,7,9 12s          # cut {3,7,9} off from everyone else
//	55s  loss 0.3 10s               # drop 30% of frames for 10s
//	70s  kill-controller 0          # via the injector's kill hook
//	75s  kill-member 4              # radio silence plus the member-kill hook
//	80s  lie 3                      # Byzantine worker 3 lies (lie hook)
//	90s  honest 3
//	85s  uplink-loss 0.4 5s         # the attached uplink loses 40% for 5s
//	95s  uplink-down 2s             # the attached uplink is down for 2s
//
// The trailing duration on crash, partition, loss, isolate, uplink-loss
// and uplink-down is optional (omitted = until the end of the run); a
// written one must be positive. Plan order is preserved: same-time
// events apply in the order written.
func Parse(text string) (Plan, error) {
	var plan Plan
	entries := strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' })
	for _, entry := range entries {
		if i := strings.IndexByte(entry, '#'); i >= 0 {
			entry = entry[:i]
		}
		fields := strings.Fields(entry)
		if len(fields) == 0 {
			continue
		}
		e, err := parseEvent(fields)
		if err != nil {
			return nil, fmt.Errorf("faults: %q: %w", strings.TrimSpace(entry), err)
		}
		plan = append(plan, e)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// usage is each kind's argument list.
var usage = map[Kind]string{
	Crash:          "<vehicle> [dur]",
	Recover:        "<vehicle>",
	RSUDown:        "<rsu>",
	RSUUp:          "<rsu>",
	Partition:      "<x>,<y> <radius> [dur]",
	Isolate:        "<target>[,<keep>...] [dur]",
	Loss:           "<prob> [dur]",
	KillController: "<controller>",
	KillMember:     "<vehicle>",
	Lie:            "<addr>",
	Honest:         "<addr>",
	UplinkLoss:     "<prob> [dur]",
	UplinkDown:     "[dur]",
}

func parseEvent(fields []string) (Event, error) {
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("want \"<time> <kind> <args...>\"")
	}
	at, err := time.ParseDuration(fields[0])
	if err != nil {
		return Event{}, fmt.Errorf("bad time %q: %w", fields[0], err)
	}
	e := Event{At: at, Kind: Kind(fields[1])}
	args := fields[2:]
	u, known := usage[e.Kind]
	if !known {
		return Event{}, fmt.Errorf("unknown kind %q", fields[1])
	}
	n := len(strings.Fields(u)) // arguments, then the optional duration
	if e.Kind.heals() {
		n--
	}
	if len(args) != n && (!e.Kind.heals() || len(args) != n+1) {
		return Event{}, fmt.Errorf("%s wants %q", e.Kind, u)
	}
	if len(args) > n {
		if e.Dur, err = parseDur(args[n]); err != nil {
			return Event{}, err
		}
	}
	switch {
	case e.Kind.targeted():
		// Only isolate keeps peers; Validate refuses them elsewhere.
		for i, f := range strings.Split(args[0], ",") {
			t, err := strconv.Atoi(f)
			if err != nil {
				return Event{}, fmt.Errorf("bad address %q: %w", f, err)
			}
			if i == 0 {
				e.Target = t
			} else {
				e.Keep = append(e.Keep, t)
			}
		}
	case e.Kind == Partition:
		if e.Center, err = parsePoint(args[0]); err != nil {
			return Event{}, err
		}
		if e.Radius, err = strconv.ParseFloat(args[1], 64); err != nil {
			return Event{}, fmt.Errorf("bad radius %q: %w", args[1], err)
		}
	case e.Kind == Loss || e.Kind == UplinkLoss:
		if e.Prob, err = strconv.ParseFloat(args[0], 64); err != nil {
			return Event{}, fmt.Errorf("bad probability %q: %w", args[0], err)
		}
	}
	return e, nil
}

func parsePoint(s string) (geo.Point, error) {
	xy := strings.SplitN(s, ",", 2)
	if len(xy) != 2 {
		return geo.Point{}, fmt.Errorf("bad point %q: want \"<x>,<y>\"", s)
	}
	x, err := strconv.ParseFloat(xy[0], 64)
	if err != nil {
		return geo.Point{}, fmt.Errorf("bad point %q: %w", s, err)
	}
	y, err := strconv.ParseFloat(xy[1], 64)
	if err != nil {
		return geo.Point{}, fmt.Errorf("bad point %q: %w", s, err)
	}
	return geo.Point{X: x, Y: y}, nil
}

func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %w", s, err)
	}
	// Dur zero means "until the run ends": a written one must be positive.
	if d <= 0 {
		return 0, fmt.Errorf("duration %q must be > 0 (omit it to run until the end)", s)
	}
	return d, nil
}
