package main

import (
	"strings"
	"testing"
)

// TestValidateFlags runs the command-line check on one command line per
// case: everything it rejects exits 2 before the kernel starts.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    string
		wantErr string // "" accepts
	}{
		{"defaults", "", ""},
		{"policy and fleet at their bounds", "-vehicles 1 -tasks 0 -duration 0.5 -replicas 3 -retries 2", ""},
		{"default single copy", "-replicas 0 -retries 1", ""},
		{"census scenario run", "-scenario parkinglot -arch infrastructure -secure -replicas 3 -retries 2 -faults '20s crash 3; 70s kill-controller 0'", ""},
		{"soak with its own flags", "-soak -byz 1 -splitbrain -store ec -dag -saturate -vehicles 14 -duration 300", ""},
		{"no vehicles", "-vehicles 0", "Vehicles"},
		{"no soak vehicles", "-soak -vehicles 0", "Vehicles"},
		{"negative tasks", "-tasks -1", "-tasks"},
		{"zero duration", "-duration 0", "-duration"},
		{"NaN duration", "-duration NaN", "-duration"},
		{"+Inf duration", "-duration +Inf", "-duration"},
		{"negative replicas", "-replicas -1", "replicas"},
		{"negative retries", "-retries -1", "-retries"},
		{"negative trace", "-trace -1", "-trace"},
		{"byz above one", "-soak -byz 1.5", "Byzantine"},
		{"negative byz", "-soak -byz -0.1", "Byzantine"},
		{"NaN byz", "-soak -byz NaN", "Byzantine"},
		{"unknown scenario", "-scenario moon", "-scenario"},
		{"unknown architecture", "-arch cloud", "-arch"},
		{"bad fault plan", "-faults '10s explode 3'", "explode"},
		{"bad storage backend", "-soak -store tape", "storage"},
		{"positional argument", "-soak extra", "positional"},
		{"byz without soak", "-byz 0.3", "-byz requires -soak"},
		{"splitbrain without soak", "-splitbrain", "-splitbrain requires -soak"},
		{"dag without soak", "-dag", "-dag requires -soak"},
		{"store without soak", "-store ec", "-store requires -soak"},
		{"saturate without soak", "-saturate", "-saturate requires -soak"},
		{"faults under soak", "-soak -faults '30s rsu-down 0'", "-faults has no effect with -soak"},
		{"secure under soak", "-soak -secure", "-secure has no effect with -soak"},
		{"replicas under soak", "-soak -replicas 3", "-replicas has no effect with -soak"},
		{"retries under soak", "-soak -retries 2", "-retries has no effect with -soak"},
		{"trace under soak", "-soak -trace 20", "-trace has no effect with -soak"},
		{"tasks under soak", "-soak -tasks 5", "-tasks has no effect with -soak"},
		{"scenario under soak", "-soak -scenario city", "-scenario has no effect with -soak"},
		{"arch under soak", "-soak -arch stationary", "-arch has no effect with -soak"},
	} {
		_, _, err := parseFlags(splitArgs(tc.args))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: parseFlags(%s) = %v, want accepted", tc.name, tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: parseFlags(%s) = %v, want an error naming %q", tc.name, tc.args, err, tc.wantErr)
		}
	}
}

// splitArgs splits a command line on spaces, keeping single-quoted
// words whole.
func splitArgs(line string) []string {
	var args []string
	for i, part := range strings.Split(line, "'") {
		if i%2 == 1 {
			args = append(args, part)
			continue
		}
		args = append(args, strings.Fields(part)...)
	}
	return args
}

// TestRetriesAloneTuneThePolicy: -retries has an effect without
// -replicas — it sets the retry budget of the default single copy.
func TestRetriesAloneTuneThePolicy(t *testing.T) {
	_, spec, err := parseFlags(splitArgs("-retries 5"))
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Cloud.Config.Controller.Depend
	if p == nil || p.MaxRetries != 5 || p.Replicas != 0 {
		t.Errorf("policy = %+v, want the default single copy with 5 retries", p)
	}
}
