package faults

import (
	"math"
	"testing"
)

// FuzzParse drives the textual plan parser with arbitrary input. Two
// properties must hold: Parse never panics, and any plan it accepts is
// (a) valid under Plan.Validate — in particular free of the NaN/Inf
// values float parsing would happily produce — and (b) round-trips
// through the plan language whole: String() re-parses to a plan that
// renders to the same text, every field of every kind included.
func FuzzParse(f *testing.F) {
	// Seeds: the README/DESIGN example plans, plus edge shapes.
	f.Add("30s rsu-down 0; 45s partition 1500,0 400 20s; 60s loss 0.3 10s; 80s rsu-up 0")
	f.Add("40s kill-controller 0")
	f.Add("12s kill-member 7")
	f.Add("30s crash 5\n50s recover 5")
	f.Add("30s crash 5 8s")
	f.Add("1s partition -1500,-20 400")
	f.Add("0s loss 1")
	f.Add("# comment only\n\n;;")
	f.Add("55s loss 0.3 10s # drop 30% for 10s")
	f.Add("1s loss NaN")
	f.Add("1s partition NaN,Inf +Inf 1s")
	f.Add("9999999h crash 2147483647")
	f.Add("-5s crash 1")
	f.Add("3s lie 4; 9s honest 4")
	f.Add("5s uplink-loss 0.5 3s")
	f.Add("7s uplink-down 2s")
	f.Add("10s loss 0.9 0s")
	f.Add("10s isolate 3,7,9 12s")

	f.Fuzz(func(t *testing.T, text string) {
		plan, err := Parse(text)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := plan.Validate(); verr != nil {
			t.Fatalf("Parse accepted a plan its own Validate rejects: %v\nplan: %q", verr, plan.String())
		}
		for i, e := range plan {
			switch e.Kind {
			case Partition:
				if math.IsNaN(e.Radius) || math.IsInf(e.Radius, 0) ||
					math.IsNaN(e.Center.X) || math.IsInf(e.Center.X, 0) ||
					math.IsNaN(e.Center.Y) || math.IsInf(e.Center.Y, 0) {
					t.Fatalf("event %d: non-finite partition accepted: %+v", i, e)
				}
			case Loss:
				if math.IsNaN(e.Prob) || e.Prob < 0 || e.Prob > 1 {
					t.Fatalf("event %d: out-of-range loss prob accepted: %v", i, e.Prob)
				}
			}
		}
		// Round-trip: the rendered plan must parse back to itself.
		text = plan.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\nrendered: %q", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("round trip renders\n%s\nwant\n%s", got, text)
		}
	})
}

// TestParseRejectsNonFinite pins the fuzz-found class directly: plan
// text with NaN/Inf floats must be rejected, not scheduled.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, text := range []string{
		"1s loss NaN",
		"1s loss +Inf",
		"1s partition NaN,0 400",
		"1s partition 0,Inf 400",
		"1s partition 0,0 NaN",
		"1s partition 0,0 Inf 5s",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted non-finite input", text)
		}
	}
	// Finite plans still parse.
	if _, err := Parse("1s partition -10,20 400 5s; 2s loss 0.5"); err != nil {
		t.Errorf("finite plan rejected: %v", err)
	}
}
