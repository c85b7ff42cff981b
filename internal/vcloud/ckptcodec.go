// Checkpoint wire codec. PR 1 replicated checkpoints as in-memory Go
// values; a truncated or corrupted replica could therefore never be
// detected, and a standby could in principle promote itself into a
// garbage state. The codec makes the failure mode explicit: checkpoints
// cross the (simulated) wire as a versioned, length-checked binary
// encoding, and DecodeCheckpoint rejects anything malformed with an
// error instead of yielding a partially-filled struct. The fuzz test in
// ckptcodec_test.go drives arbitrary mutations through the decoder.
//
// The layout is written once, as one walk over the checkpoint's fields
// (checkpoint, policy, task, ... below). The walk runs in three modes:
// sizing counts the encoding's bytes, writing appends them and reading
// fills the fields back in and checks them. Adding or removing a field is
// one line, and the three cannot disagree.
package vcloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"vcloud/internal/vnet"
)

// ckptMagic identifies encoded checkpoints; the trailing byte is the
// format version.
var ckptMagic = [4]byte{'V', 'C', 'P', 9}

// Decoder sanity caps: a checkpoint exceeding these is rejected as
// corrupt. They sit far above anything a simulated cloud produces.
const (
	ckptMaxMembers = 1 << 14
	ckptMaxTasks   = 1 << 16
	ckptMaxString  = 1 << 10
	ckptMaxVoters  = 1 << 12
	ckptMaxLedger  = 1 << 16
	ckptMaxJobs    = 1 << 12
	ckptMaxStages  = 1 << 10
)

// walkMode is what a walk over the layout does at each field.
type walkMode uint8

const (
	sizing  walkMode = iota // count the field's bytes
	writing                 // append the field to buf
	reading                 // fill the field in from buf
)

// ckptWalk is one walk over a checkpoint's layout.
type ckptWalk struct {
	mode walkMode
	n    int    // sizing: the bytes counted
	buf  []byte // writing: the encoding so far; reading: the input
	off  int    // reading: the bytes consumed
	err  error  // reading: the first corruption found
}

func (w *ckptWalk) fail(format string, args ...interface{}) {
	if w.err == nil {
		w.err = fmt.Errorf("vcloud: corrupt checkpoint: "+format, args...)
	}
}

// checking reports whether a decoder check is due: the walk is reading
// and has found nothing corrupt yet.
func (w *ckptWalk) checking() bool { return w.mode == reading && w.err == nil }

func (w *ckptWalk) take(n int) []byte {
	if w.err != nil {
		return nil
	}
	if w.off+n > len(w.buf) {
		w.fail("truncated at byte %d (want %d more)", w.off, n)
		return nil
	}
	b := w.buf[w.off : w.off+n]
	w.off += n
	return b
}

// word walks the low width bytes of v, big-endian, and returns the value
// read, or v when not reading.
func (w *ckptWalk) word(v uint64, width int) uint64 {
	var b [8]byte
	switch w.mode {
	case sizing:
		w.n += width
	case writing:
		binary.BigEndian.PutUint64(b[:], v)
		w.buf = append(w.buf, b[8-width:]...)
	case reading:
		copy(b[8-width:], w.take(width))
		v = binary.BigEndian.Uint64(b[:])
	}
	return v
}

// num walks an integer field in width bytes.
func num[T ~int | ~int32 | ~int64 | ~uint8 | ~uint64](w *ckptWalk, p *T, width int) {
	if v := w.word(uint64(*p), width); w.mode == reading {
		*p = T(v)
	}
}

func (w *ckptWalk) f64(p *float64) {
	if v := w.word(math.Float64bits(*p), 8); w.mode == reading {
		*p = math.Float64frombits(v)
	}
}

// flag walks a bool as one byte; any non-zero byte reads as true.
func (w *ckptWalk) flag(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if v = w.word(v, 1); w.mode == reading {
		*p = v != 0
	}
}

// raw walks len(p) bytes as they are.
func (w *ckptWalk) raw(p []byte) {
	switch w.mode {
	case sizing:
		w.n += len(p)
	case writing:
		w.buf = append(w.buf, p...)
	case reading:
		copy(p, w.take(len(p)))
	}
}

// str walks a string behind a u16 length.
func str[T ~string](w *ckptWalk, p *T) {
	n := len(*p)
	num(w, &n, 2)
	switch w.mode {
	case sizing:
		w.n += n
	case writing:
		w.buf = append(w.buf, string(*p)...)
	case reading:
		if n > ckptMaxString {
			w.fail("string length %d exceeds cap", n)
		} else if b := w.take(n); b != nil {
			*p = T(b)
		}
	}
}

// quantity reports whether v can stand for an amount — a capacity,
// wasted work: neither NaN, nor infinite, nor negative.
func quantity(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// record is how one record type is walked, and the fewest bytes it
// encodes to: the size of its zero value, every string and collection
// in it empty.
type record[T any] struct {
	walk func(*ckptWalk, *T)
	min  int
}

func newRecord[T any](walk func(*ckptWalk, *T)) record[T] {
	var zero T
	w := ckptWalk{mode: sizing}
	walk(&w, &zero)
	return record[T]{walk, w.n}
}

var (
	addrRec      = newRecord(func(w *ckptWalk, a *vnet.Addr) { num(w, a, 8) })
	depRec       = newRecord(func(w *ckptWalk, d *int) { num(w, d, 8) })
	memberRec    = newRecord(member)
	taskCkptRec  = newRecord(taskCkpt)
	appliedRec   = newRecord(applied)
	parkedRec    = newRecord(parked)
	jobRec       = newRecord(job)
	valueRec     = newRecord(func(w *ckptWalk, v *uint64) { num(w, v, 8) })
	stageSpecRec = newRecord(stageSpec)
	stageRowRec  = newRecord(stageRow)
)

// list walks a collection behind a u32 count; reading, a count above max
// is corrupt. Reading, it presizes s to at most the bytes left over the
// record's minimum size, so a hostile count cannot force a large
// allocation, and an empty collection stays nil, as it was encoded.
func list[T any](w *ckptWalk, s *[]T, rec record[T], what string, max int) {
	n := int(w.word(uint64(len(*s)), 4))
	if w.mode != reading {
		for i := range *s {
			rec.walk(w, &(*s)[i])
		}
		return
	}
	if n > max {
		w.fail("%s count %d exceeds cap %d", what, n, max)
		return
	}
	if c := min(n, (len(w.buf)-w.off)/rec.min); c > 0 {
		*s = make([]T, 0, c)
	}
	var zero T
	for i := 0; i < n && w.err == nil; i++ {
		*s = append(*s, zero)
		rec.walk(w, &(*s)[i])
	}
}

// optional walks a pointer behind a presence byte.
func optional[T any](w *ckptWalk, p **T, walk func(*ckptWalk, *T)) {
	present := *p != nil
	if w.flag(&present); present {
		if w.mode == reading {
			*p = new(T)
		}
		walk(w, *p)
	}
}

func checkpoint(w *ckptWalk, ck *Checkpoint) {
	magic := ckptMagic
	w.raw(magic[:]) // DecodeCheckpoint checks it before the walk
	num(w, &ck.Controller, 8)
	num(w, &ck.Seq, 8)
	num(w, &ck.NextID, 8)
	num(w, &ck.NextJobID, 8)
	w.flag(&ck.Emergency)
	num(w, &ck.Epoch.Counter, 8)
	num(w, &ck.Epoch.Claimant, 8)
	list(w, &ck.Members, memberRec, "member", ckptMaxMembers)
	list(w, &ck.Tasks, taskCkptRec, "task", ckptMaxTasks)
	list(w, &ck.Applied, appliedRec, "ledger", ckptMaxLedger)
	list(w, &ck.Parked, parkedRec, "parked", ckptMaxLedger)
	list(w, &ck.Armed, addrRec, "armed", ckptMaxMembers)
	list(w, &ck.Jobs, jobRec, "job", ckptMaxJobs)
}

func policy(w *ckptWalk, p *DependabilityPolicy) {
	num(w, &p.Replicas, 8)
	num(w, &p.MaxRetries, 8)
	num(w, &p.AttemptTimeout, 8)
	w.f64(&p.TrustThreshold)
	w.flag(&p.TrustWeighted)
	if w.checking() {
		if err := p.Validate(); err != nil {
			w.fail("invalid policy: %v", err)
		}
	}
}

func member(w *ckptWalk, m *MemberSnapshot) {
	num(w, &m.Addr, 8)
	w.f64(&m.CPU)
	if w.checking() && !quantity(m.CPU) {
		w.fail("member %d cpu %v", m.Addr, m.CPU)
	}
}

func task(w *ckptWalk, t *Task) {
	num(w, &t.ID, 8)
	w.f64(&t.Ops)
	num(w, &t.InputBytes, 8)
	num(w, &t.OutputBytes, 8)
	num(w, &t.Deadline, 8)
	w.flag(&t.Optional)
	optional(w, &t.Depend, policy)
	optional(w, &t.Stage, stageBinding)
	if w.checking() {
		if err := t.Validate(); err != nil {
			w.fail("invalid task %d: %v", t.ID, err)
		}
	}
}

func stageBinding(w *ckptWalk, b *StageBinding) {
	num(w, &b.Job, 8)
	num(w, &b.Stage, 8)
	list(w, &b.Inputs, valueRec, "stage input", ckptMaxStages)
}

func taskCkpt(w *ckptWalk, tc *TaskCheckpoint) {
	task(w, &tc.Task)
	w.f64(&tc.RemainingOps)
	num(w, &tc.Retries, 8)
	num(w, &tc.Handovers, 8)
	num(w, &tc.Submitted, 8)
	if w.checking() && !quantity(tc.RemainingOps) {
		w.fail("task %d remaining ops %v", tc.Task.ID, tc.RemainingOps)
	}
}

func applied(w *ckptWalk, a *AppliedRecord) {
	num(w, &a.ID, 8)
	num(w, &a.Epoch, 8)
}

func parked(w *ckptWalk, p *ParkedOutcome) {
	task(w, &p.Task)
	w.flag(&p.OK)
	str(w, &p.Reason)
	num(w, &p.Value, 8)
	list(w, &p.Voters, addrRec, "voter", ckptMaxVoters)
	num(w, &p.Retries, 8)
	num(w, &p.Handovers, 8)
	num(w, &p.Submitted, 8)
	num(w, &p.Seq, 8)
}

func job(w *ckptWalk, jc *JobCheckpoint) {
	num(w, &jc.ID, 8)
	num(w, &jc.Submitted, 8)
	num(w, &jc.Restarts, 8)
	w.f64(&jc.Wasted)
	if w.checking() && !quantity(jc.Wasted) {
		w.fail("job %d wasted ops %v", jc.ID, jc.Wasted)
	}
	s := &jc.Spec
	list(w, &s.Stages, stageSpecRec, "job stage", ckptMaxStages)
	num(w, &s.ReplicaBudget, 8)
	w.flag(&s.ReplicateAll)
	num(w, &s.StageRetries, 8)
	num(w, &s.TaskRetries, 8)
	num(w, &s.Deadline, 8)
	w.flag(&s.WholeJobRestart)
	if w.checking() {
		if err := s.Validate(); err != nil {
			w.fail("invalid job %d spec: %v", jc.ID, err)
		}
	}
	list(w, &jc.Stages, stageRowRec, "stage row", ckptMaxStages)
	if w.err == errBadStatus { // the bad row is the last one read
		i := len(jc.Stages) - 1
		w.err = nil
		w.fail("job %d stage %d: bad status %d", jc.ID, i, jc.Stages[i].Status)
	}
}

func stageSpec(w *ckptWalk, st *StageSpec) {
	w.f64(&st.Ops)
	num(w, &st.InputBytes, 8)
	num(w, &st.OutputBytes, 8)
	list(w, &st.Deps, depRec, "stage dep", ckptMaxStages)
	w.flag(&st.Optional)
}

// errBadStatus stops a walk at a stage row whose status is out of range;
// job, which knows the job and the row, words the error.
var errBadStatus = errors.New("bad stage status")

func stageRow(w *ckptWalk, sc *StageCheckpoint) {
	num(w, &sc.Status, 1)
	num(w, &sc.Value, 8)
	num(w, &sc.Retries, 8)
	num(w, &sc.TaskID, 8)
	if w.checking() && (sc.Status < StageWaiting || sc.Status > StageFailed) {
		w.err = errBadStatus
	}
}

// EncodeCheckpoint serializes a checkpoint for replication. The
// encoding is deterministic: equal checkpoints encode to equal bytes. The
// buffer is allocated once, at the size a sizing walk counts.
func EncodeCheckpoint(ck Checkpoint) []byte {
	w := &ckptWalk{mode: sizing}
	checkpoint(w, &ck)
	w.mode, w.buf = writing, make([]byte, 0, w.n)
	checkpoint(w, &ck)
	return w.buf
}

// DecodeCheckpoint parses an encoded checkpoint, rejecting truncated or
// corrupted input with an error — a standby never promotes itself from
// garbage.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < len(ckptMagic) || [4]byte(data) != ckptMagic {
		return Checkpoint{}, fmt.Errorf("vcloud: corrupt checkpoint: bad magic/version")
	}
	var ck Checkpoint
	w := &ckptWalk{mode: reading, buf: data}
	checkpoint(w, &ck)
	if w.err != nil {
		return Checkpoint{}, w.err
	}
	if w.off != len(data) {
		return Checkpoint{}, fmt.Errorf("vcloud: corrupt checkpoint: %d trailing bytes", len(data)-w.off)
	}
	return ck, nil
}
