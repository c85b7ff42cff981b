package vcloud

import (
	"testing"
	"time"

	"vcloud/internal/trace"
)

// TestTracingIsCheap: an emit boxes nothing. Into a nil sink it is a
// nil check; into a warm Recorder it copies one value into the ring.
func TestTracingIsCheap(t *testing.T) {
	rec, err := trace.NewRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sink trace.Sink
	}{{"nil sink", nil}, {"recorder", rec.Record}} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := bareController(t, ControllerConfig{Trace: tc.sink})
			emit := func() { c.emit(trace.Finish, 7, bit(true), int64(time.Second)) }
			emit()
			if n := testing.AllocsPerRun(100, emit); n != 0 {
				t.Errorf("an emit allocates %v times, want 0", n)
			}
		})
	}
	if rec.Count() == 0 {
		t.Error("the recorder was handed no event")
	}
}
