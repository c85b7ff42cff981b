package vcloud_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"vcloud/internal/vcloud"
	"vcloud/internal/vnet"
)

// fixtureCheckpoint exercises every field the codec carries: membership,
// fenced epoch, a per-task dependability policy, an
// applied ledger, parked outcomes with voters, outstanding arming
// obligations and a DAG job part-way through.
func fixtureCheckpoint() vcloud.Checkpoint {
	return vcloud.Checkpoint{
		Controller: 7,
		Seq:        42,
		NextID:     9001,
		Emergency:  true,
		Members: []vcloud.MemberSnapshot{
			{Addr: 3, CPU: 1000},
			{Addr: 5, CPU: 500},
		},
		Tasks: []vcloud.TaskCheckpoint{
			{
				Task:         vcloud.Task{ID: 11, Ops: 5000, InputBytes: 100, OutputBytes: 50, Depend: &vcloud.DependabilityPolicy{Replicas: 3, MaxRetries: 2}, Optional: true},
				RemainingOps: 1234.5,
				Retries:      1,
				Handovers:    2,
				Submitted:    10 * time.Second,
			},
		},
		Epoch:   vcloud.NextEpoch(0, 7),
		Applied: []vcloud.AppliedRecord{{ID: 9, Epoch: 65543}, {ID: 10, Epoch: 65543}},
		Parked: []vcloud.ParkedOutcome{
			{
				Task:      vcloud.Task{ID: 12, Ops: 800},
				OK:        true,
				Reason:    "",
				Value:     0xfeed,
				Voters:    []vnet.Addr{3, 5, 9},
				Retries:   0,
				Handovers: 1,
				Submitted: 11 * time.Second,
				Seq:       41,
			},
		},
		Armed: []vnet.Addr{3, 9},
		Jobs: []vcloud.JobCheckpoint{{
			ID:        4,
			Submitted: 8 * time.Second,
			Restarts:  1,
			Wasted:    2500,
			Spec:      vcloud.JobSpec{Stages: []vcloud.StageSpec{{Ops: 2500, OutputBytes: 64}}},
			Stages:    []vcloud.StageCheckpoint{{Status: vcloud.StageDone, Value: 7, TaskID: 13}},
		}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := fixtureCheckpoint()
	data := vcloud.EncodeCheckpoint(ck)
	got, err := vcloud.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode of a valid encoding failed: %v", err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Errorf("round-trip mismatch:\n in: %+v\nout: %+v", ck, got)
	}
	// Deterministic: equal checkpoints encode to equal bytes.
	if !bytes.Equal(data, vcloud.EncodeCheckpoint(ck)) {
		t.Error("encoding is not deterministic")
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	valid := vcloud.EncodeCheckpoint(fixtureCheckpoint())

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] ^= 0xff
		if _, err := vcloud.DecodeCheckpoint(data); err == nil {
			t.Error("bad magic accepted")
		}
	})
	// Format v8 still carried stage holders and input sources; its rows
	// do not parse as v9, so its magic must stop it, as must a later one.
	t.Run("bad version", func(t *testing.T) {
		for _, v := range []byte{8, valid[3] + 1} {
			data := append([]byte(nil), valid...)
			data[3] = v
			if _, err := vcloud.DecodeCheckpoint(data); err == nil || !strings.Contains(err.Error(), "magic") {
				t.Errorf("version %d: got %v, want a magic/version refusal", v, err)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(valid); n += 7 {
			if _, err := vcloud.DecodeCheckpoint(valid[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := vcloud.DecodeCheckpoint(append(append([]byte(nil), valid...), 0xaa)); err == nil {
			t.Error("trailing byte accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := vcloud.DecodeCheckpoint(nil); err == nil {
			t.Error("empty input accepted")
		}
	})
	// A float the decoder takes as an amount must be one: a NaN remaining
	// op count would give a resumed task a NaN runtime, so every finish
	// estimate and timeout of a promoted standby would go wrong with it.
	// Every other decoder check has a row too, with the error it words.
	for _, tc := range []struct {
		name string
		set  func(*vcloud.Checkpoint)
		want string
	}{
		{"NaN remaining ops", func(ck *vcloud.Checkpoint) { ck.Tasks[0].RemainingOps = math.NaN() }, "task 11 remaining ops NaN"},
		{"infinite member CPU", func(ck *vcloud.Checkpoint) { ck.Members[1].CPU = math.Inf(1) }, "member 5 cpu +Inf"},
		{"negative member CPU", func(ck *vcloud.Checkpoint) { ck.Members[0].CPU = -1 }, "member 3 cpu -1"},
		{"minus-infinite job wasted ops", func(ck *vcloud.Checkpoint) { ck.Jobs[0].Wasted = math.Inf(-1) }, "job 4 wasted ops -Inf"},
		{"negative policy replicas", func(ck *vcloud.Checkpoint) { ck.Tasks[0].Task.Depend = &vcloud.DependabilityPolicy{Replicas: -1} },
			"invalid policy: vcloud: policy replicas must be >= 0, got -1"},
		{"zero task ops", func(ck *vcloud.Checkpoint) { ck.Tasks[0].Task.Ops = 0 }, "invalid task 11: vcloud: task ops must be positive and finite, got 0"},
		{"NaN task ops", func(ck *vcloud.Checkpoint) { ck.Tasks[0].Task.Ops = math.NaN() }, "invalid task 11: vcloud: task ops must be positive and finite, got NaN"},
		{"infinite task ops", func(ck *vcloud.Checkpoint) { ck.Parked[0].Task.Ops = math.Inf(1) }, "invalid task 12: vcloud: task ops must be positive and finite, got +Inf"},
		{"stage depending on itself", func(ck *vcloud.Checkpoint) { ck.Jobs[0].Spec.Stages[0].Deps = []int{0} }, "invalid job 4 spec: "},
		{"stage status out of range", func(ck *vcloud.Checkpoint) { ck.Jobs[0].Stages[0].Status = 9 }, "job 4 stage 0: bad status 9"},
		{"over-long parked reason", func(ck *vcloud.Checkpoint) { ck.Parked[0].Reason = vcloud.FailReason(strings.Repeat("s", 1025)) }, "string length 1025 exceeds cap"},
		{"too many voters", func(ck *vcloud.Checkpoint) { ck.Parked[0].Voters = make([]vnet.Addr, 4097) }, "voter count 4097 exceeds cap 4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := fixtureCheckpoint()
			tc.set(&ck)
			_, err := vcloud.DecodeCheckpoint(vcloud.EncodeCheckpoint(ck))
			if want := "vcloud: corrupt checkpoint: " + tc.want; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("got %v, want %q", err, want)
			}
		})
	}
}

// TestCheckpointRefusesNonFiniteFloats sets every float64 a checkpoint
// can carry, in turn, to NaN, +Inf and -Inf, and requires the decoder to
// refuse each. A +Inf remaining op count once decoded: a promoted
// standby would have queued +Inf ops on a member for good and armed its
// attempt timeout at sim.Time(+Inf). The fixture gains a parked task
// policy, so that every float64 field the Checkpoint type reaches holds
// a value the walk can set.
func TestCheckpointRefusesNonFiniteFloats(t *testing.T) {
	rich := func() vcloud.Checkpoint {
		ck := fixtureCheckpoint()
		ck.Parked[0].Task.Depend = &vcloud.DependabilityPolicy{TrustThreshold: 0.5}
		return ck
	}
	ck := rich()
	var fields []string
	eachFloat(reflect.ValueOf(&ck).Elem(), func(field string, _ *float64) { fields = append(fields, field) })
	byType := map[string]bool{}
	floatFieldsOf(reflect.TypeOf(ck), byType)
	for _, f := range fields {
		delete(byType, f)
	}
	if len(byType) > 0 {
		t.Fatalf("the fixture holds no value for the float fields %v", byType)
	}
	for i, field := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			ck, n := rich(), 0
			eachFloat(reflect.ValueOf(&ck).Elem(), func(_ string, p *float64) {
				if n == i {
					*p = bad
				}
				n++
			})
			if _, err := vcloud.DecodeCheckpoint(vcloud.EncodeCheckpoint(ck)); err == nil {
				t.Errorf("float %d (%s) = %v decoded", i, field, bad)
			}
		}
	}
}

// eachFloat calls f, in walk order, on every float64 reachable from v
// through structs, slices and non-nil pointers, naming it Type.Field.
func eachFloat(v reflect.Value, f func(field string, p *float64)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachFloat(v.Elem(), f)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachFloat(v.Index(i), f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if fv := v.Field(i); fv.Kind() == reflect.Float64 {
				f(v.Type().Name()+"."+v.Type().Field(i).Name, fv.Addr().Interface().(*float64))
			} else {
				eachFloat(fv, f)
			}
		}
	}
}

// floatFieldsOf adds every float64 field type t reaches to out, as
// Type.Field.
func floatFieldsOf(t reflect.Type, out map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice:
		floatFieldsOf(t.Elem(), out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if ft := t.Field(i); ft.Type.Kind() == reflect.Float64 {
				out[t.Name()+"."+ft.Name] = true
			} else {
				floatFieldsOf(ft.Type, out)
			}
		}
	}
}

// FuzzDecodeCheckpoint asserts the decoder's contract on arbitrary
// bytes: it never panics, and anything it does accept survives a
// re-encode/re-decode round trip (no partially-filled garbage escapes —
// the property that keeps a standby from promoting into a corrupt
// state), its re-encoding sized exactly.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := vcloud.EncodeCheckpoint(fixtureCheckpoint())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	small := vcloud.EncodeCheckpoint(vcloud.Checkpoint{Controller: 1})
	f.Add(small)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := vcloud.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		re := vcloud.EncodeCheckpoint(ck)
		if len(re) != cap(re) {
			t.Fatalf("re-encode wrote %d bytes into a buffer sized %d", len(re), cap(re))
		}
		ck2, err := vcloud.DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-encode of an accepted checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("accepted checkpoint is not a codec fixed point:\n first: %+v\nsecond: %+v", ck, ck2)
		}
	})
}

// TestFuzzSeedsPassTheMagic: every committed FuzzDecodeCheckpoint seed
// is a finding the decoder must refuse for its content. A seed left at
// an older format version is refused by the magic check instead and no
// longer reaches the field check it was committed for, so each seed
// must be rejected, and not for its magic.
func TestFuzzSeedsPassTheMagic(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeCheckpoint", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed seeds (err %v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-[]byte corpus file", p)
		}
		data, err := strconv.Unquote(lines[1][len("[]byte(") : len(lines[1])-1])
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		_, err = vcloud.DecodeCheckpoint([]byte(data))
		switch {
		case err == nil:
			t.Errorf("%s: decoded without error", p)
		case strings.Contains(err.Error(), "magic"):
			t.Errorf("%s: rejected at the magic check: %v", p, err)
		default:
			t.Logf("%s: %v", filepath.Base(p), err)
		}
	}
}

// busyCheckpoint is fixtureCheckpoint grown to a busy controller's size:
// a hundred members, sixty tasks in flight, a long applied ledger and
// parked outcomes.
func busyCheckpoint() vcloud.Checkpoint {
	ck := fixtureCheckpoint()
	for i := 0; i < 100; i++ {
		ck.Members = append(ck.Members, vcloud.MemberSnapshot{Addr: vnet.Addr(100 + i), CPU: 800})
		ck.Applied = append(ck.Applied, vcloud.AppliedRecord{ID: vcloud.TaskID(1000 + i), Epoch: 65543})
	}
	for i := 0; i < 60; i++ {
		tc := ck.Tasks[0]
		tc.Task.ID = vcloud.TaskID(2000 + i)
		ck.Tasks = append(ck.Tasks, tc)
		if i%4 == 0 {
			p := ck.Parked[0]
			p.Task.ID = vcloud.TaskID(3000 + i)
			ck.Parked = append(ck.Parked, p)
		}
	}
	return ck
}

// BenchmarkCheckpointCodec encodes and decodes busyCheckpoint, the
// round trip every checkpoint a standby receives pays.
func BenchmarkCheckpointCodec(b *testing.B) {
	ck := busyCheckpoint()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vcloud.EncodeCheckpoint(ck)
		}
	})
	data := vcloud.EncodeCheckpoint(ck)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := vcloud.DecodeCheckpoint(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEncodedSizeIsExact: the encoder sizes its buffer once, so the
// buffer it returns must be full — for the fixture, for the busy
// checkpoint and for the empty one.
func TestEncodedSizeIsExact(t *testing.T) {
	for name, ck := range map[string]vcloud.Checkpoint{"fixture": fixtureCheckpoint(), "busy": busyCheckpoint(), "staged": stagedCheckpoint(), "empty": {}} {
		if data := vcloud.EncodeCheckpoint(ck); len(data) != cap(data) {
			t.Errorf("%s: encoded %d bytes into a buffer sized %d", name, len(data), cap(data))
		}
	}
}

// stagedCheckpoint is fixtureCheckpoint with every optional part of the
// layout filled in: a stage binding with input values, a parked failure
// reason, and a stage with dependencies.
func stagedCheckpoint() vcloud.Checkpoint {
	ck := fixtureCheckpoint()
	ck.Tasks[0].Task.Stage = &vcloud.StageBinding{Job: 4, Stage: 1, Inputs: []uint64{0xfeed, 0}}
	ck.Parked[0].Reason = "timeout"
	ck.Jobs[0].Spec.Stages[0].Deps = []int{0}
	return ck
}

// TestEncodingIsPinned: the wire layout is part of the model (a
// checkpoint's frame is as long as its encoding) and of the committed
// fuzz seeds, so every byte of it is pinned, not only the lengths.
func TestEncodingIsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		ck   vcloud.Checkpoint
		len  int
		hash string
	}{
		{"fixture", fixtureCheckpoint(), 507, "814c144ed31e09a63563e6138b9eef271d10c69c301768e0e970a9af00e0e95d"},
		{"busy", busyCheckpoint(), 11897, "2044e85254e7cc5c18988bed06f780a6c36e0d09e1c247286f9dff9c4b375f7a"},
		{"staged", stagedCheckpoint(), 558, "49d87897a550f2845383b311d84e5607f930f5a7f4f61a6411c45218caaa338f"},
		{"empty", vcloud.Checkpoint{}, 77, "2bcacf6b4785a9d6df879e47f7071578857d0c7e264a3b732cef59fccfa8abb9"},
	} {
		data := vcloud.EncodeCheckpoint(tc.ck)
		if sum := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != tc.len || sum != tc.hash {
			t.Errorf("%s: encoded %d bytes with sha256 %s, want %d bytes with %s", tc.name, len(data), sum, tc.len, tc.hash)
		}
	}
}

// TestHostileCountIsCheap: decoding presizes a collection by its count
// only as far as the bytes left could hold its records. An empty
// checkpoint's 61 header bytes, their task count set to 65,536, and then
// 16 KiB of zeros must be refused for a few KiB per call, not the
// megabytes a presize trusting the count (or one record per byte left)
// would take.
func TestHostileCountIsCheap(t *testing.T) {
	data := append([]byte(nil), vcloud.EncodeCheckpoint(vcloud.Checkpoint{})[:61]...)
	binary.BigEndian.PutUint32(data[57:], 1<<16)
	data = append(data, make([]byte, 16<<10)...)
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := vcloud.DecodeCheckpoint(data); err == nil {
			t.Fatal("hostile count accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("decoding a hostile count allocated %d B per call, want under 64 KiB", per)
	}
}

// TestCheckpointCodecAllocs: encoding the busy checkpoint allocates its
// buffer and the walk, and decoding allocates what the decoded value
// holds — its slices, strings and policies — and the walk, not a heap
// copy of each record.
func TestCheckpointCodecAllocs(t *testing.T) {
	ck := busyCheckpoint()
	data := vcloud.EncodeCheckpoint(ck)
	if n := testing.AllocsPerRun(20, func() { vcloud.EncodeCheckpoint(ck) }); n > 3 {
		t.Errorf("encode: %v allocations, want at most 3", n)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = vcloud.DecodeCheckpoint(data) }); n > 160 {
		t.Errorf("decode: %v allocations, want at most 160", n)
	}
}
