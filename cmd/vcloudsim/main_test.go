package main

import (
	"math"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name              string
		vehicles, tasks   int
		duration          float64
		replicas, retries int
		byz               float64
		wantErr           bool
	}{
		{"defaults", 40, 30, 120, 0, 0, 0, false},
		{"policy and byz at their bounds", 1, 0, 0.5, 3, 2, 1, false},
		{"no vehicles", 0, 30, 120, 0, 0, 0, true},
		{"negative tasks", 40, -1, 120, 0, 0, 0, true},
		{"zero duration", 40, 30, 0, 0, 0, 0, true},
		{"NaN duration", 40, 30, math.NaN(), 0, 0, 0, true},
		{"+Inf duration", 40, 30, math.Inf(1), 0, 0, 0, true},
		{"negative replicas", 40, 30, 120, -1, 0, 0, true},
		{"negative retries", 40, 30, 120, 0, -1, 0, true},
		{"byz above one", 40, 30, 120, 0, 0, 1.5, true},
		{"negative byz", 40, 30, 120, 0, 0, -0.1, true},
		{"NaN byz", 40, 30, 120, 0, 0, math.NaN(), true},
	} {
		err := validateFlags(tc.vehicles, tc.tasks, tc.duration, tc.replicas, tc.retries, tc.byz)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: validateFlags = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}
