// Package trace is the observation spine: every occurrence the cloud
// reports is one fixed-shape Event handed to a Sink. The shape carries
// numbers only, so emitting boxes nothing; a Sink that is nil costs the
// emitting code one nil check. Recorder is the debugging Sink: a ring of
// values it renders only when dumped.
package trace

import (
	"fmt"
	"io"

	"vcloud/internal/sim"
)

// Kind names what an Event records and which of its fields it sets.
// Node is always the acting node and Epoch the acting controller's
// epoch counter (zero when unfenced); A and B are the details below.
type Kind uint8

const (
	Dispatch     Kind = iota + 1 // a copy of Task sent to member A as replica B
	ReplicaLost                  // Task's replica B died with expired member A
	Handover                     // member A handed Task back with B ops left
	Finish                       // Task finished; A is 1 when OK, B its latency
	Park                         // Task's outcome waits for checkpoint A's acks
	Dedup                        // Task's outcome dropped: it was applied already
	Apply                        // Task's outcome applied; A is 1 when OK
	Accept                       // member Node followed controller A at Epoch, claimed by B
	JobSubmit                    // Job accepted with A stages and replica budget B
	StageDone                    // Job's Stage finished
	StageAbandon                 // Job's optional Stage lost for good
	JobRestart                   // Job restarted whole, the A-th time
	JobFinish                    // Job finished; A is 1 when OK, B its latency
	Promote                      // a standby took over from controller A at checkpoint seq B
	Abdicate                     // the controller stood down to rival A at epoch B
	Merge                        // the controller merged the state of rival A at epoch B
	StandbyLost                  // no eligible member left to replicate checkpoints to
)

// Event is one observed occurrence: 64 bytes of plain values, correlated
// by task, job, stage and epoch.
type Event struct {
	At    sim.Time
	Task  uint64
	Job   uint64
	Epoch uint64
	A, B  int64
	Node  int32
	Stage int32
	Kind  Kind
}

// Sink receives every event of the code it is installed in.
type Sink func(Event)

// String renders the event's details in its kind's format. The switch
// has no default, so a kind added without a format fails vcloudlint's
// exhaustenum check.
func (e Event) String() string {
	switch e.Kind {
	case Dispatch:
		return fmt.Sprintf("task %d replica %d -> %d", e.Task, e.B, e.A)
	case ReplicaLost:
		return fmt.Sprintf("task %d replica %d lost with expired member %d", e.Task, e.B, e.A)
	case Handover:
		return fmt.Sprintf("task %d handover from %d (%d ops left)", e.Task, e.A, e.B)
	case Finish:
		return fmt.Sprintf("task %d finish ok=%v latency=%v", e.Task, e.A == 1, sim.Time(e.B))
	case Park:
		return fmt.Sprintf("task %d outcome parked until ckpt %d acked", e.Task, e.A)
	case Dedup:
		return fmt.Sprintf("task %d outcome deduped (already applied)", e.Task)
	case Apply:
		return fmt.Sprintf("task %d outcome applied ok=%v", e.Task, e.A == 1)
	case Accept:
		return fmt.Sprintf("followed controller %d (epoch claimed by %d)", e.A, e.B)
	case JobSubmit:
		return fmt.Sprintf("job %d submitted: %d stages, budget %d", e.Job, e.A, e.B)
	case StageDone:
		return fmt.Sprintf("job %d stage %d done", e.Job, e.Stage)
	case StageAbandon:
		return fmt.Sprintf("job %d stage %d abandoned (optional branch lost)", e.Job, e.Stage)
	case JobRestart:
		return fmt.Sprintf("job %d whole-job restart %d", e.Job, e.A)
	case JobFinish:
		return fmt.Sprintf("job %d finish ok=%v latency=%v", e.Job, e.A == 1, sim.Time(e.B))
	case Promote:
		return fmt.Sprintf("promoted to controller (ckpt seq %d from %d)", e.B, e.A)
	case Abdicate:
		return fmt.Sprintf("abdicating to rival %d at epoch %d", e.A, e.B)
	case Merge:
		return fmt.Sprintf("merged rival %d at epoch %d", e.A, e.B)
	case StandbyLost:
		return "standby lost: no eligible member to replicate checkpoints to"
	}
	return fmt.Sprintf("kind %d", e.Kind)
}

// Recorder keeps the most recent events in a ring of values.
type Recorder struct {
	events []Event
	count  uint64 // events ever recorded; the next one goes to count % cap
}

// NewRecorder creates a recorder keeping the most recent capacity events.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("trace: capacity must be >= 1, got %d", capacity)
	}
	return &Recorder{events: make([]Event, capacity)}, nil
}

// Record is the recorder's Sink: it keeps e, overwriting the oldest
// event once the ring is full.
func (r *Recorder) Record(e Event) {
	r.events[r.count%uint64(len(r.events))] = e
	r.count++
}

// Count returns the total number of events ever recorded.
func (r *Recorder) Count() uint64 { return r.count }

// Dump writes the retained events to w, oldest first, one per line: one
// kernel emits in time order, so record order is time order.
func (r *Recorder) Dump(w io.Writer) error {
	n := uint64(len(r.events))
	for i := r.count - min(r.count, n); i < r.count; i++ {
		e := r.events[i%n]
		if _, err := fmt.Fprintf(w, "%12v node=%-7d epoch=%-7d %v\n", e.At, e.Node, e.Epoch, e); err != nil {
			return err
		}
	}
	return nil
}
