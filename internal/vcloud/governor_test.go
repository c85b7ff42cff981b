package vcloud_test

import (
	"errors"
	"testing"
	"time"

	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
)

// fakeBackend accepts every submission and completes it after a fixed
// latency.
type fakeBackend struct {
	name    string
	kernel  *sim.Kernel
	latency sim.Time
	taken   int
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Submit(task vcloud.Task, done func(vcloud.TaskResult)) error {
	f.taken++
	f.kernel.After(f.latency, func() {
		if done != nil {
			done(vcloud.TaskResult{ID: task.ID, OK: true, Latency: f.latency})
		}
	})
	return nil
}

// blackHoleBackend accepts submissions and never calls back — the lost-
// in-flight case the governor's slot-release guard exists for.
type blackHoleBackend struct{ taken int }

func (b *blackHoleBackend) Name() string { return "hole" }
func (b *blackHoleBackend) Submit(vcloud.Task, func(vcloud.TaskResult)) error {
	b.taken++
	return nil
}

// refusingBackend refuses every submission synchronously, as a vehicle
// cloud with no active controller does.
type refusingBackend struct{ tried int }

func (r *refusingBackend) Name() string { return "headless" }
func (r *refusingBackend) Submit(vcloud.Task, func(vcloud.TaskResult)) error {
	r.tried++
	return errors.New("no active controller")
}

func newGovernor(t *testing.T, k *sim.Kernel, stats *vcloud.Stats, cfg vcloud.GovernorConfig) *vcloud.Governor {
	t.Helper()
	g, err := vcloud.NewGovernor(k, cfg, stats)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The governor routes around a congested tier: when the cloud tier's
// uplink backs up, work moves to the vehicle tier even though the
// cloud's nameplate figures look better.
func TestGovernorAdaptsToCongestion(t *testing.T) {
	k := sim.NewKernel(1)
	stats := &vcloud.Stats{}
	cloud := &fakeBackend{name: "cloud", kernel: k, latency: 50 * time.Millisecond}
	veh := &fakeBackend{name: "vehicle", kernel: k, latency: 200 * time.Millisecond}
	up, err := radio.NewUplink(k, radio.UplinkParams{BaseRTT: 60 * time.Millisecond, BandwidthMbps: 40})
	if err != nil {
		t.Fatal(err)
	}
	g := newGovernor(t, k, stats, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{
			// Cloud: huge CPU, network-bound. Vehicle: modest CPU, free net.
			{Tier: vcloud.TierCloud, Backend: cloud, CPU: 1e6, NominalBps: 40e6, BaseRTT: 60 * time.Millisecond, Sender: up.NewSender(radio.BWEConfig{})},
			{Tier: vcloud.TierVehicle, Backend: veh, CPU: 5e4},
		},
	})
	task := vcloud.Task{Ops: 10_000, InputBytes: 200_000, OutputBytes: 50_000}
	if err := g.Submit(task, nil); err != nil {
		t.Fatal(err)
	}
	if cloud.taken != 1 {
		t.Fatalf("healthy uplink: cloud took %d, want 1", cloud.taken)
	}
	// Congestion: a 10 MB transfer ahead in the FIFO holds the channel
	// for 2 s against 0.2 s locally, far past any hysteresis band.
	up.NewSender(radio.BWEConfig{}).RoundTrip(10_000_000, 0, nil)
	if err := g.Submit(task, nil); err != nil {
		t.Fatal(err)
	}
	if veh.taken != 1 {
		t.Fatalf("congested uplink: vehicle took %d, want 1 (cloud %d)", veh.taken, cloud.taken)
	}
	if stats.TierSwitches.Value() != 1 {
		t.Errorf("tier switches = %d, want 1", stats.TierSwitches.Value())
	}
}

// Hysteresis: a marginally better rival does not flip placement; the
// preferred tier keeps the work until the gap exceeds the factor.
func TestGovernorHysteresis(t *testing.T) {
	k := sim.NewKernel(1)
	stats := &vcloud.Stats{}
	a := &fakeBackend{name: "a", kernel: k, latency: time.Millisecond}
	b := &fakeBackend{name: "b", kernel: k, latency: time.Millisecond}
	// Tier B is always slightly (but < 25%) faster than A.
	g := newGovernor(t, k, stats, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{
			{Tier: vcloud.TierVehicle, Backend: a, CPU: 1000},
			{Tier: vcloud.TierEdge, Backend: b, CPU: 1100},
		},
	})
	task := vcloud.Task{Ops: 100}
	for i := 0; i < 10; i++ {
		if err := g.Submit(task, nil); err != nil {
			t.Fatal(err)
		}
		k.Run(k.Now() + 10*time.Millisecond)
	}
	// First placement goes to the genuinely best tier (B); afterwards a
	// <25% edge must never trigger a switch.
	if stats.TierSwitches.Value() != 0 {
		t.Errorf("tier switches = %d, want 0 (flapping)", stats.TierSwitches.Value())
	}
	if b.taken != 10 || a.taken != 0 {
		t.Errorf("placements a=%d b=%d, want all on b", a.taken, b.taken)
	}
}

// A tier that refuses synchronously hands the task to the next tier in
// estimate order: the headless vehicle cloud is the best estimate, but
// the reachable cloud tier runs the task, and neither the refused slot
// nor a tier switch lingers.
func TestGovernorFallsThroughOnRefusal(t *testing.T) {
	k := sim.NewKernel(1)
	stats := &vcloud.Stats{}
	veh := &refusingBackend{}
	cloud := &fakeBackend{name: "cloud", kernel: k, latency: 50 * time.Millisecond}
	g := newGovernor(t, k, stats, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{
			{Tier: vcloud.TierVehicle, Backend: veh, CPU: 2000},
			{Tier: vcloud.TierCloud, Backend: cloud, CPU: 1000, BaseRTT: 60 * time.Millisecond},
		},
	})
	var got []vcloud.TaskResult
	if err := g.Submit(vcloud.Task{Ops: 100, Deadline: 5 * time.Second}, func(r vcloud.TaskResult) { got = append(got, r) }); err != nil {
		t.Fatalf("submit refused with a reachable tier left: %v", err)
	}
	k.Run(time.Second)
	if veh.tried != 1 || cloud.taken != 1 {
		t.Fatalf("vehicle tried %d, cloud took %d: want the refusal to fall through once", veh.tried, cloud.taken)
	}
	if len(got) != 1 || !got[0].OK {
		t.Fatalf("results %+v, want one success", got)
	}
	if g.Placed(0) != 0 || g.Placed(1) != 1 || g.Outstanding(0) != 0 {
		t.Errorf("placed %d/%d, vehicle outstanding %d: want 0/1 and 0", g.Placed(0), g.Placed(1), g.Outstanding(0))
	}
	// Every tier refusing returns the refusal.
	g = newGovernor(t, k, stats, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{{Tier: vcloud.TierVehicle, Backend: veh, CPU: 2000}},
	})
	if err := g.Submit(vcloud.Task{Ops: 100}, nil); err == nil {
		t.Error("submit accepted with every tier refusing")
	}
}

// Admission control: a deadline no tier can make is rejected up front
// with ReasonAdmission instead of burning bandwidth.
func TestGovernorAdmission(t *testing.T) {
	k := sim.NewKernel(1)
	stats := &vcloud.Stats{}
	be := &fakeBackend{name: "slow", kernel: k, latency: time.Second}
	g := newGovernor(t, k, stats, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{{Tier: vcloud.TierVehicle, Backend: be, CPU: 100}},
	})
	var got vcloud.TaskResult
	// 10k ops at 100 ops/s = 100 s >> 1 s deadline.
	err := g.Submit(vcloud.Task{Ops: 10_000, Deadline: time.Second}, func(r vcloud.TaskResult) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if got.OK || got.Reason != vcloud.ReasonAdmission {
		t.Errorf("result = %+v, want ReasonAdmission", got)
	}
	if be.taken != 0 {
		t.Error("admission-rejected task reached the backend")
	}
	if stats.AdmissionRejects.Value() != 1 {
		t.Errorf("AdmissionRejects = %d, want 1", stats.AdmissionRejects.Value())
	}
}

// Backpressure and shedding: a full tier bounces required work with
// ReasonBackpressure; optional work is shed earlier (at the utilization
// threshold) with ReasonShed.
func TestGovernorBackpressureAndShedding(t *testing.T) {
	k := sim.NewKernel(1)
	stats := &vcloud.Stats{}
	hole := &blackHoleBackend{}
	g := newGovernor(t, k, stats, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{{Tier: vcloud.TierVehicle, Backend: hole, CPU: 1e6, QueueLimit: 10}},
	})
	task := vcloud.Task{Ops: 100}
	reasons := map[vcloud.FailReason]int{}
	record := func(r vcloud.TaskResult) {
		if !r.OK {
			reasons[r.Reason]++
		}
	}
	// Fill to just below the shed threshold with required work.
	for i := 0; i < 8; i++ {
		if err := g.Submit(task, record); err != nil {
			t.Fatal(err)
		}
	}
	if g.Outstanding(0) != 8 {
		t.Fatalf("outstanding = %d, want 8", g.Outstanding(0))
	}
	// At 80% utilization optional work sheds...
	opt := task
	opt.Optional = true
	if err := g.Submit(opt, record); err != nil {
		t.Fatal(err)
	}
	if reasons[vcloud.ReasonShed] != 1 {
		t.Fatalf("optional work not shed at threshold: %v", reasons)
	}
	// ...while required work still lands until the hard limit...
	for i := 0; i < 2; i++ {
		if err := g.Submit(task, record); err != nil {
			t.Fatal(err)
		}
	}
	if g.Outstanding(0) != 10 {
		t.Fatalf("outstanding = %d, want 10 (at limit)", g.Outstanding(0))
	}
	// ...and past it, required work bounces with backpressure.
	if err := g.Submit(task, record); err != nil {
		t.Fatal(err)
	}
	if reasons[vcloud.ReasonBackpressure] != 1 {
		t.Fatalf("full queue did not backpressure: %v", reasons)
	}
	if stats.Shed.Value() != 1 || stats.Backpressured.Value() != 1 {
		t.Errorf("Shed=%d Backpressured=%d, want 1/1", stats.Shed.Value(), stats.Backpressured.Value())
	}
	// The outstanding count never exceeded the bound.
	if g.Outstanding(0) > g.QueueLimit(0) {
		t.Errorf("outstanding %d exceeds limit %d", g.Outstanding(0), g.QueueLimit(0))
	}
	// Slot-release guard: the black-hole backend never calls back, but
	// the guard timeout eventually frees the slots.
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if g.Outstanding(0) != 0 {
		t.Errorf("outstanding = %d after guard window, want 0", g.Outstanding(0))
	}
}
