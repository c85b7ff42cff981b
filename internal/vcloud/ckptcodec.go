// Checkpoint wire codec. PR 1 replicated checkpoints as in-memory Go
// values; a truncated or corrupted replica could therefore never be
// detected, and a standby could in principle promote itself into a
// garbage state. The codec makes the failure mode explicit: checkpoints
// cross the (simulated) wire as a versioned, length-checked binary
// encoding, and DecodeCheckpoint rejects anything malformed with an
// error instead of yielding a partially-filled struct. The fuzz test in
// ckptcodec_test.go drives arbitrary mutations through the decoder.
package vcloud

import (
	"encoding/binary"
	"fmt"
	"math"

	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// ckptMagic identifies encoded checkpoints; the trailing byte is the
// format version.
var ckptMagic = [4]byte{'V', 'C', 'P', 6}

// ckptReserved is the length of the zero block that ends every encoding.
// It keeps the place of deleted fields: a task price (8 bytes), a
// per-tier estimate table (120), the controller's retry limit (8) and
// its never-read handover flag (1), then the controller configuration a
// checkpoint no longer carries (50) — the standby's failover timeout
// (8), the five controller timings (40) and the failover and fencing
// flags (2). A checkpoint's radio frame is as long as its encoding, so
// the length is part of the model: without the block, cloud_storm's p99
// latency moves and every soak mode's outcomes change. It goes when a
// re-baseline sets out to move checkpoint frame lengths.
const ckptReserved = 187

// Decoder sanity caps: a checkpoint exceeding these is rejected as
// corrupt. They sit far above anything a simulated cloud produces.
const (
	ckptMaxMembers = 1 << 14
	ckptMaxTasks   = 1 << 16
	ckptMaxSensors = 64
	ckptMaxString  = 1 << 10
	ckptMaxVoters  = 1 << 12
	ckptMaxLedger  = 1 << 16
	ckptMaxJobs    = 1 << 12
	ckptMaxStages  = 1 << 10
)

type ckptWriter struct{ buf []byte }

func (w *ckptWriter) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *ckptWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *ckptWriter) u16(v uint16)     { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *ckptWriter) u32(v uint32)     { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *ckptWriter) u64(v uint64)     { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *ckptWriter) i64(v int64)      { w.u64(uint64(v)) }
func (w *ckptWriter) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *ckptWriter) addr(a vnet.Addr) { w.i64(int64(a)) }
func (w *ckptWriter) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("vcloud: corrupt checkpoint: "+format, args...)
	}
}

func (r *ckptReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated at byte %d (want %d more)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *ckptReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *ckptReader) bool() bool { return r.u8() != 0 }

func (r *ckptReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *ckptReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *ckptReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *ckptReader) i64() int64      { return int64(r.u64()) }
func (r *ckptReader) f64() float64    { return math.Float64frombits(r.u64()) }
func (r *ckptReader) addr() vnet.Addr { return vnet.Addr(r.i64()) }

func (r *ckptReader) str() string {
	n := int(r.u16())
	if n > ckptMaxString {
		r.fail("string length %d exceeds cap", n)
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// quantity reports whether v can stand for an amount — a capacity,
// wasted work: neither NaN, nor infinite, nor negative.
func quantity(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// count reads a u32 collection length and bounds it.
func (r *ckptReader) count(what string, max int) int {
	n := int(r.u32())
	if n > max {
		r.fail("%s count %d exceeds cap %d", what, n, max)
		return 0
	}
	return n
}

// Wire sizes, in bytes, of the checkpoint's parts with every string and
// nested collection empty — each record's fixed fields plus the length
// prefixes. The decoder presizes slices by them; encodedSize adds the
// variable parts to them.
const (
	wireAddr        = 8
	wireString      = 2
	wireHeader      = 4 + 5*8 + 1 + 2*8 + 1 + 6*4 // magic … epoch, the policy's presence byte, six collection counts
	wirePolicy      = 8 + 8 + 8 + 8 + 8 + 8 + 1   // behind a presence byte
	wireMember      = 8 + 8 + 8 + 2
	wireTask        = 8 + 8 + 8 + 8 + 8 + 2 + 1 + 1 + 1
	wireStage       = 8 + 8 + 8 + 4 // a task's stage binding, behind a presence byte
	wireTaskCkpt    = wireTask + 8 + 8 + 8 + 8 + 8
	wireStageInput  = 8 + 8 + 4
	wireApplied     = 8 + 8
	wireParked      = wireTask + 8 + 1 + 2 + 8 + 4 + 8 + 8 + 8 + 8
	wireJob         = 8 + 8 + 8 + 8 + 8 + 4 + 8 + 1 + 8 + 8 + 8 + 8 + 1 + 8 + 4
	wireStageSpec   = 2 + 8 + 8 + 8 + 2 + 4 + 1
	wireDep         = 8
	wireStageRecord = 1 + 8 + 8 + 8 + 4
)

// encodedSize is the exact length of ck's encoding, so EncodeCheckpoint
// allocates its buffer once; TestEncodedSizeIsExact and the fuzz round
// trip hold it to the writer.
func encodedSize(ck *Checkpoint) int {
	n := wireHeader + policySize(ck.Depend) + ckptReserved
	for _, m := range ck.Members {
		n += wireMember
		for _, s := range m.Res.Sensors {
			n += wireString + len(s)
		}
	}
	for i := range ck.Tasks {
		n += wireTaskCkpt + taskSize(&ck.Tasks[i].Task)
	}
	n += wireApplied * len(ck.Applied)
	for i := range ck.Parked {
		p := &ck.Parked[i]
		n += wireParked + taskSize(&p.Task) + len(p.Reason) + wireAddr*len(p.Voters)
	}
	n += wireAddr * len(ck.Armed)
	for i := range ck.Jobs {
		jc := &ck.Jobs[i]
		n += wireJob
		for _, st := range jc.Spec.Stages {
			n += wireStageSpec + len(st.Name) + len(st.NeedsSensor) + wireDep*len(st.Deps)
		}
		for _, sc := range jc.Stages {
			n += wireStageRecord + wireAddr*len(sc.Holders)
		}
	}
	return n
}

// policySize is the wire size of an optional policy beyond its presence
// byte.
func policySize(p *DependabilityPolicy) int {
	if p == nil {
		return 0
	}
	return wirePolicy
}

// taskSize is the wire size of t's variable parts beyond wireTask.
func taskSize(t *Task) int {
	n := len(t.NeedsSensor) + policySize(t.Depend)
	if b := t.Stage; b != nil {
		n += wireStage
		for _, in := range b.Inputs {
			n += wireStageInput + wireAddr*len(in.Sources)
		}
	}
	return n
}

// presize returns an empty slice with room for n records of at least
// minWire bytes each, capped by the bytes left to read so a hostile count
// cannot force a large allocation, or nil when there is nothing to hold
// (a decoded empty collection stays nil, as it was encoded).
func presize[T any](r *ckptReader, n, minWire int) []T {
	if c := min(n, (len(r.buf)-r.off)/minWire); c > 0 {
		return make([]T, 0, c)
	}
	return nil
}

func writePolicy(w *ckptWriter, p *DependabilityPolicy) {
	if p == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.i64(int64(p.Replicas))
	w.i64(int64(p.MaxRetries))
	w.i64(int64(p.RetryBackoff))
	w.f64(p.BackoffJitter)
	w.i64(int64(p.AttemptTimeout))
	w.f64(p.TrustThreshold)
	w.bool(p.TrustWeighted)
}

func readPolicy(r *ckptReader) *DependabilityPolicy {
	if !r.bool() {
		return nil
	}
	p := &DependabilityPolicy{
		Replicas:       int(r.i64()),
		MaxRetries:     int(r.i64()),
		RetryBackoff:   sim.Time(r.i64()),
		BackoffJitter:  r.f64(),
		AttemptTimeout: sim.Time(r.i64()),
		TrustThreshold: r.f64(),
		TrustWeighted:  r.bool(),
	}
	if r.err == nil {
		if err := p.Validate(); err != nil {
			r.fail("invalid policy: %v", err)
		}
	}
	return p
}

func writeTask(w *ckptWriter, t Task) {
	w.u64(uint64(t.ID))
	w.f64(t.Ops)
	w.i64(int64(t.InputBytes))
	w.i64(int64(t.OutputBytes))
	w.i64(int64(t.Deadline))
	w.str(t.NeedsSensor)
	w.bool(t.Optional)
	writePolicy(w, t.Depend)
	if t.Stage == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.u64(uint64(t.Stage.Job))
	w.i64(int64(t.Stage.Stage))
	w.i64(int64(t.Stage.OutputBytes))
	w.u32(uint32(len(t.Stage.Inputs)))
	for _, in := range t.Stage.Inputs {
		w.i64(int64(in.Stage))
		w.i64(int64(in.Bytes))
		w.u32(uint32(len(in.Sources)))
		for _, s := range in.Sources {
			w.addr(s)
		}
	}
}

func readTask(r *ckptReader) Task {
	t := Task{
		ID:          TaskID(r.u64()),
		Ops:         r.f64(),
		InputBytes:  int(r.i64()),
		OutputBytes: int(r.i64()),
		Deadline:    sim.Time(r.i64()),
		NeedsSensor: r.str(),
	}
	t.Optional = r.bool()
	t.Depend = readPolicy(r)
	if r.bool() {
		b := &StageBinding{
			Job:         JobID(r.u64()),
			Stage:       int(r.i64()),
			OutputBytes: int(r.i64()),
		}
		n := r.count("stage input", ckptMaxStages)
		b.Inputs = presize[StageInput](r, n, wireStageInput)
		for i := 0; i < n && r.err == nil; i++ {
			in := StageInput{Stage: int(r.i64()), Bytes: int(r.i64())}
			ns := r.count("input source", ckptMaxVoters)
			in.Sources = presize[vnet.Addr](r, ns, wireAddr)
			for j := 0; j < ns && r.err == nil; j++ {
				in.Sources = append(in.Sources, r.addr())
			}
			b.Inputs = append(b.Inputs, in)
		}
		t.Stage = b
	}
	if r.err == nil {
		if err := t.Validate(); err != nil {
			r.fail("invalid task %d: %v", t.ID, err)
		}
	}
	return t
}

func writeJob(w *ckptWriter, jc JobCheckpoint) {
	w.u64(uint64(jc.ID))
	w.addr(jc.Client)
	w.i64(int64(jc.Submitted))
	w.i64(int64(jc.Restarts))
	w.f64(jc.Wasted)
	s := jc.Spec
	w.u32(uint32(len(s.Stages)))
	for _, st := range s.Stages {
		w.str(st.Name)
		w.f64(st.Ops)
		w.i64(int64(st.InputBytes))
		w.i64(int64(st.OutputBytes))
		w.str(st.NeedsSensor)
		w.u32(uint32(len(st.Deps)))
		for _, d := range st.Deps {
			w.i64(int64(d))
		}
		w.bool(st.Optional)
	}
	w.i64(int64(s.ReplicaBudget))
	w.bool(s.ReplicateAll)
	w.i64(int64(s.StageRetries))
	w.i64(int64(s.TaskRetries))
	w.i64(int64(s.RetryBackoff))
	w.i64(int64(s.Deadline))
	w.bool(s.WholeJobRestart)
	w.i64(int64(s.JobRestarts))
	w.u32(uint32(len(jc.Stages)))
	for _, sc := range jc.Stages {
		w.u8(uint8(sc.Status))
		w.u64(sc.Value)
		w.i64(int64(sc.Retries))
		w.u64(uint64(sc.TaskID))
		w.u32(uint32(len(sc.Holders)))
		for _, h := range sc.Holders {
			w.addr(h)
		}
	}
}

func readJob(r *ckptReader) JobCheckpoint {
	jc := JobCheckpoint{
		ID:        JobID(r.u64()),
		Client:    r.addr(),
		Submitted: sim.Time(r.i64()),
		Restarts:  int(r.i64()),
		Wasted:    r.f64(),
	}
	if r.err == nil && !quantity(jc.Wasted) {
		r.fail("job %d wasted ops %v", jc.ID, jc.Wasted)
	}
	n := r.count("job stage", ckptMaxStages)
	jc.Spec.Stages = presize[StageSpec](r, n, wireStageSpec)
	for i := 0; i < n && r.err == nil; i++ {
		st := StageSpec{
			Name:        r.str(),
			Ops:         r.f64(),
			InputBytes:  int(r.i64()),
			OutputBytes: int(r.i64()),
			NeedsSensor: r.str(),
		}
		nd := r.count("stage dep", ckptMaxStages)
		st.Deps = presize[int](r, nd, wireDep)
		for j := 0; j < nd && r.err == nil; j++ {
			st.Deps = append(st.Deps, int(r.i64()))
		}
		st.Optional = r.bool()
		jc.Spec.Stages = append(jc.Spec.Stages, st)
	}
	jc.Spec.ReplicaBudget = int(r.i64())
	jc.Spec.ReplicateAll = r.bool()
	jc.Spec.StageRetries = int(r.i64())
	jc.Spec.TaskRetries = int(r.i64())
	jc.Spec.RetryBackoff = sim.Time(r.i64())
	jc.Spec.Deadline = sim.Time(r.i64())
	jc.Spec.WholeJobRestart = r.bool()
	jc.Spec.JobRestarts = int(r.i64())
	if r.err == nil {
		if err := jc.Spec.Validate(); err != nil {
			r.fail("invalid job %d spec: %v", jc.ID, err)
		}
	}
	n = r.count("stage row", ckptMaxStages)
	jc.Stages = presize[StageCheckpoint](r, n, wireStageRecord)
	for i := 0; i < n && r.err == nil; i++ {
		sc := StageCheckpoint{
			Status:  StageStatus(r.u8()),
			Value:   r.u64(),
			Retries: int(r.i64()),
			TaskID:  TaskID(r.u64()),
		}
		if r.err == nil && (sc.Status < StageWaiting || sc.Status > StageFailed) {
			r.fail("job %d stage %d: bad status %d", jc.ID, i, sc.Status)
			break
		}
		nh := r.count("holder", ckptMaxVoters)
		sc.Holders = presize[vnet.Addr](r, nh, wireAddr)
		for j := 0; j < nh && r.err == nil; j++ {
			sc.Holders = append(sc.Holders, r.addr())
		}
		jc.Stages = append(jc.Stages, sc)
	}
	return jc
}

// EncodeCheckpoint serializes a checkpoint for replication. The
// encoding is deterministic: equal checkpoints encode to equal bytes. The
// buffer is allocated once, at the encoding's exact size.
func EncodeCheckpoint(ck Checkpoint) []byte {
	w := &ckptWriter{buf: make([]byte, 0, encodedSize(&ck))}
	w.buf = append(w.buf, ckptMagic[:]...)
	w.addr(ck.Controller)
	w.addr(ck.Standby)
	w.u64(ck.Seq)
	w.u64(uint64(ck.NextID))
	w.u64(uint64(ck.NextJobID))
	w.bool(ck.Emergency)
	w.u64(ck.Epoch.Counter)
	w.addr(ck.Epoch.Claimant)
	writePolicy(w, ck.Depend)

	w.u32(uint32(len(ck.Members)))
	for _, m := range ck.Members {
		w.addr(m.Addr)
		w.f64(m.Res.CPU)
		w.f64(m.Res.Storage)
		w.u16(uint16(len(m.Res.Sensors)))
		for _, s := range m.Res.Sensors {
			w.str(s)
		}
	}
	w.u32(uint32(len(ck.Tasks)))
	for _, t := range ck.Tasks {
		writeTask(w, t.Task)
		w.addr(t.Client)
		w.f64(t.RemainingOps)
		w.i64(int64(t.Retries))
		w.i64(int64(t.Handovers))
		w.i64(int64(t.Submitted))
	}
	w.u32(uint32(len(ck.Applied)))
	for _, a := range ck.Applied {
		w.u64(uint64(a.ID))
		w.u64(a.Epoch)
	}
	w.u32(uint32(len(ck.Parked)))
	for _, p := range ck.Parked {
		writeTask(w, p.Task)
		w.addr(p.Client)
		w.bool(p.OK)
		w.str(string(p.Reason))
		w.u64(p.Value)
		w.u32(uint32(len(p.Voters)))
		for _, v := range p.Voters {
			w.addr(v)
		}
		w.i64(int64(p.Retries))
		w.i64(int64(p.Handovers))
		w.i64(int64(p.Submitted))
		w.u64(p.Seq)
	}
	w.u32(uint32(len(ck.Armed)))
	for _, a := range ck.Armed {
		w.addr(a)
	}
	w.u32(uint32(len(ck.Jobs)))
	for _, jc := range ck.Jobs {
		writeJob(w, jc)
	}
	w.buf = append(w.buf, make([]byte, ckptReserved)...)
	return w.buf
}

// DecodeCheckpoint parses an encoded checkpoint, rejecting truncated or
// corrupted input with an error — a standby never promotes itself from
// garbage.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	r := &ckptReader{buf: data}
	if m := r.take(4); m == nil || [4]byte{m[0], m[1], m[2], m[3]} != ckptMagic {
		return Checkpoint{}, fmt.Errorf("vcloud: corrupt checkpoint: bad magic/version")
	}
	var ck Checkpoint
	ck.Controller = r.addr()
	ck.Standby = r.addr()
	ck.Seq = r.u64()
	ck.NextID = TaskID(r.u64())
	ck.NextJobID = TaskID(r.u64())
	ck.Emergency = r.bool()
	ck.Epoch.Counter = r.u64()
	ck.Epoch.Claimant = r.addr()
	ck.Depend = readPolicy(r)

	n := r.count("member", ckptMaxMembers)
	ck.Members = presize[MemberSnapshot](r, n, wireMember)
	for i := 0; i < n && r.err == nil; i++ {
		ms := MemberSnapshot{Addr: r.addr()}
		ms.Res.CPU = r.f64()
		ms.Res.Storage = r.f64()
		if r.err == nil && (!quantity(ms.Res.CPU) || !quantity(ms.Res.Storage)) {
			r.fail("member %d resources (cpu %v, storage %v)", ms.Addr, ms.Res.CPU, ms.Res.Storage)
		}
		ns := int(r.u16())
		if ns > ckptMaxSensors {
			r.fail("sensor count %d exceeds cap", ns)
			break
		}
		ms.Res.Sensors = presize[string](r, ns, wireString)
		for j := 0; j < ns && r.err == nil; j++ {
			ms.Res.Sensors = append(ms.Res.Sensors, r.str())
		}
		ck.Members = append(ck.Members, ms)
	}
	n = r.count("task", ckptMaxTasks)
	ck.Tasks = presize[TaskCheckpoint](r, n, wireTaskCkpt)
	for i := 0; i < n && r.err == nil; i++ {
		tc := TaskCheckpoint{Task: readTask(r)}
		tc.Client = r.addr()
		tc.RemainingOps = r.f64()
		tc.Retries = int(r.i64())
		tc.Handovers = int(r.i64())
		tc.Submitted = sim.Time(r.i64())
		if r.err == nil && (math.IsNaN(tc.RemainingOps) || tc.RemainingOps < 0) {
			r.fail("task %d remaining ops %v", tc.Task.ID, tc.RemainingOps)
		}
		ck.Tasks = append(ck.Tasks, tc)
	}
	n = r.count("ledger", ckptMaxLedger)
	ck.Applied = presize[AppliedRecord](r, n, wireApplied)
	for i := 0; i < n && r.err == nil; i++ {
		ck.Applied = append(ck.Applied, AppliedRecord{ID: TaskID(r.u64()), Epoch: r.u64()})
	}
	n = r.count("parked", ckptMaxLedger)
	ck.Parked = presize[ParkedOutcome](r, n, wireParked)
	for i := 0; i < n && r.err == nil; i++ {
		p := ParkedOutcome{Task: readTask(r)}
		p.Client = r.addr()
		p.OK = r.bool()
		p.Reason = FailReason(r.str())
		p.Value = r.u64()
		nv := r.count("voter", ckptMaxVoters)
		p.Voters = presize[vnet.Addr](r, nv, wireAddr)
		for j := 0; j < nv && r.err == nil; j++ {
			p.Voters = append(p.Voters, r.addr())
		}
		p.Retries = int(r.i64())
		p.Handovers = int(r.i64())
		p.Submitted = sim.Time(r.i64())
		p.Seq = r.u64()
		ck.Parked = append(ck.Parked, p)
	}
	n = r.count("armed", ckptMaxMembers)
	ck.Armed = presize[vnet.Addr](r, n, wireAddr)
	for i := 0; i < n && r.err == nil; i++ {
		ck.Armed = append(ck.Armed, r.addr())
	}
	n = r.count("job", ckptMaxJobs)
	ck.Jobs = presize[JobCheckpoint](r, n, wireJob)
	for i := 0; i < n && r.err == nil; i++ {
		ck.Jobs = append(ck.Jobs, readJob(r))
	}
	for _, b := range r.take(ckptReserved) {
		if b != 0 {
			r.fail("non-zero reserved byte %#x", b)
			break
		}
	}
	if r.err != nil {
		return Checkpoint{}, r.err
	}
	if r.off != len(r.buf) {
		return Checkpoint{}, fmt.Errorf("vcloud: corrupt checkpoint: %d trailing bytes", len(r.buf)-r.off)
	}
	return ck, nil
}
