package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestRecorderValidation(t *testing.T) {
	if _, err := NewRecorder(0); err == nil {
		t.Error("zero capacity should error")
	}
}

// TestEventFitsACacheLine: an event is copied, never boxed, so its size
// is the cost of every emit.
func TestEventFitsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 64 {
		t.Errorf("Event is %d bytes, want at most 64", n)
	}
}

// dump returns r's dump, one string per line.
func dump(t *testing.T, r *Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

func TestRecordKeepsEmitOrder(t *testing.T) {
	r, err := NewRecorder(100)
	if err != nil {
		t.Fatal(err)
	}
	r.Record(Event{At: time.Second, Kind: Dispatch, Task: 1, A: 4})
	r.Record(Event{At: 2 * time.Second, Kind: Finish, Task: 1, A: 1, B: int64(time.Second)})
	r.Record(Event{At: 3 * time.Second, Kind: Apply, Task: 1, A: 1, Epoch: 65543})
	if r.Count() != 3 {
		t.Errorf("Count = %d", r.Count())
	}
	want := []string{
		"          1s node=0       epoch=0       task 1 replica 0 -> 4",
		"          2s node=0       epoch=0       task 1 finish ok=true latency=1s",
		"          3s node=0       epoch=65543   task 1 outcome applied ok=true",
	}
	if got := dump(t, r); !slices.Equal(got, want) {
		t.Errorf("dump =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r, err := NewRecorder(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Record(Event{At: time.Duration(i) * time.Second, Kind: Dedup, Task: uint64(i)})
	}
	got := dump(t, r)
	if len(got) != 4 || !strings.HasSuffix(got[0], "task 6 outcome deduped (already applied)") ||
		!strings.HasSuffix(got[3], "task 9 outcome deduped (already applied)") {
		t.Errorf("retained window wrong: %q", got)
	}
	if r.Count() != 10 {
		t.Errorf("Count = %d", r.Count())
	}
}

// TestEveryKindHasAFormat: each kind renders in its own words.
func TestEveryKindHasAFormat(t *testing.T) {
	seen := map[string]Kind{}
	for k := Dispatch; k <= StandbyLost; k++ {
		s := Event{Kind: k, Task: 3, Job: 2, Stage: 1, A: 1, B: 2}.String()
		if strings.HasPrefix(s, "kind ") {
			t.Errorf("kind %d renders as %q: no format", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d both render as %q", prev, k, s)
		}
		seen[s] = k
	}
}
