package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// This benchmark runs in a guest on a shared host. When another guest
// holds a processor this one has work for, the guest's clock keeps
// running and nothing here executes: the kernel counts that as "steal"
// in /proc/stat. On this class of host steal comes in spells of seconds
// to a minute that take up to 40 % of a repetition, which no bound on a
// host-time metric could hold, and it says nothing about the program. So
// the wall-clock metrics are reported net of it (see quietWall).

// stealTimes reads, per processor, the host time since boot the
// hypervisor gave to other guests while that processor had work. It
// returns nil where the kernel does not say (not Linux, no /proc).
func stealTimes() []time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []time.Duration
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		// "cpuN user nice system idle iowait irq softirq steal ...", in
		// ticks of 1/100 s; the first line, "cpu", is their sum.
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		ticks, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, time.Duration(ticks)*10*time.Millisecond)
	}
	return out
}

// quietWall returns what the interval wall would have lasted had no
// processor been stolen during it, given the per-processor steal readings
// at its two ends. The work stands still while any processor it is
// running on is held (a lone thread is on one processor at a time; shard
// workers wait for each other at every window's barrier), so the time to
// take off is the time during which at least one processor was stolen.
// /proc/stat gives only each processor's total, so the spells on
// different processors are taken as independent:
// wall × Π(1 − stolen_i ÷ wall). Where only one processor is busy the
// others have no work to be stolen from, and this is wall − stolen.
func quietWall(wall time.Duration, before, after []time.Duration) time.Duration {
	if wall <= 0 || len(before) != len(after) {
		return wall
	}
	kept := 1.0
	for i := range before {
		// The counters move in 10 ms ticks, so a short interval can read
		// more stolen than it lasted: never take off more than nine tenths.
		share := min(float64(after[i]-before[i])/float64(wall), 0.9)
		kept *= 1 - share
	}
	return time.Duration(float64(wall) * kept)
}
