// Saturation soak: the congestion workload and its invariants
// (ISSUE 8). When SoakConfig.Saturate is on, the harness stands up a
// contended shared uplink to a conventional cloud, attaches a GCC-style
// bandwidth estimator to it (internal/radio/gcc.go), and drives a
// ramping task stream through the placement governor
// (internal/vcloud/governor.go) fronting two tiers: the vehicular cloud
// itself (through the deployment's most-members-first active
// controller, so placement keeps working across failovers) and the
// remote cloud over the contended link. The storm gains a saturation
// branch — uplink loss bursts and brief outages the estimator has to
// ride out — and every sweep audits the overload-control contract:
//
//   - no tier queue grows past its configured bound (backpressure, not
//     unbounded buffering, absorbs overload);
//
//   - the channel's FIFO backlog stays bounded by the tail-drop policy
//     (at most the queue cap plus one in-service transfer);
//
//   - a completion meets its deadline: an OK outcome delivered after
//     it is a violation;
//
//   - shed work is only ever optional: a required task may be
//     backpressured or admission-rejected, never load-shed;
//
//   - accounting: completed, failed, shed, admission-rejected and
//     backpressured outcomes together never exceed the submissions the
//     governor took (refusals at submit are counted apart);
//
//   - the bandwidth estimate stays within the channel's physical
//     capacity — the estimator may be wrong, but never claims a rate
//     the link cannot carry.
package chaos

import (
	"math/rand"
	"time"

	"vcloud/internal/faults"
	"vcloud/internal/radio"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
)

// Saturation workload shape. The link is sized so the ramp crosses from
// under-subscribed to saturating inside the soak horizon: at full ramp
// the offered payload exceeds the uplink's capacity, forcing the
// governor to spill to the vehicle tier, shed optional work, and
// backpressure.
const (
	satUplinkMbps   = 8
	satCloudCPU     = 1e6 // datacenter ops/s: compute is never the cloud bottleneck
	satVehicleCPU   = 1000.0
	satTaskOps      = 1500.0
	satInputBytes   = 40_000
	satOutputBytes  = 10_000
	satMaxBatch     = 8   // submissions per beat at full ramp
	satOptionalFrac = 0.4 // fraction of the stream that is sheddable
)

// satTask tracks one congestion-workload submission.
type satTask struct {
	optional bool
	deadline sim.Time
	fired    int
}

// satState is the soak's congestion-workload bookkeeping.
type satState struct {
	// rng is the dedicated "chaos.saturate" stream shaping the workload
	// mix and the storm draws, so the saturation soak replays
	// bit-for-bit per seed.
	rng    *rand.Rand
	uplink *radio.Uplink
	sender *radio.Sender
	gov    *vcloud.Governor
	tasks  []*satTask
}

// setupSaturate stands up the contended uplink (attached to the
// injector for the storm), the estimator-backed sender, the two-tier
// governor, and the workload state.
func (sk *soak) setupSaturate() error {
	k := sk.s.Kernel
	up, err := radio.NewUplink(k, radio.UplinkParams{
		BaseRTT:       60 * time.Millisecond,
		BandwidthMbps: satUplinkMbps,
		LossProb:      0.02,
		JitterFrac:    0.1,
	})
	if err != nil {
		return err
	}
	sk.w.Injector.AttachUplink(up)
	sender := up.NewSender(radio.BWEConfig{})
	cloud, err := vcloud.NewRemoteCloud("soak-cloud", k, sender, satCloudCPU, sk.w.Stats)
	if err != nil {
		return err
	}
	gov, err := vcloud.NewGovernor(k, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{
			// Index 0: the vehicular cloud — network-free, modest compute.
			{Tier: vcloud.TierVehicle, Backend: vcloud.DeploymentBackend{D: sk.w.Cloud},
				CPU: float64(sk.cfg.Vehicles) * satVehicleCPU},
			// Index 1: the conventional cloud behind the contended uplink,
			// with the sender as its live congestion feed.
			{Tier: vcloud.TierCloud, Backend: cloud, CPU: satCloudCPU,
				NominalBps: satUplinkMbps * 1e6, BaseRTT: 60 * time.Millisecond,
				Sender: sender},
		},
	}, sk.w.Stats)
	if err != nil {
		return err
	}
	sk.sat = &satState{rng: k.NewStream("chaos.saturate"), uplink: up, sender: sender, gov: gov}
	return nil
}

// saturateTick submits one beat of the congestion workload. The batch
// size ramps linearly over the soak horizon, so the stream crosses from
// under-subscribed to saturating and the sweeps observe the governor on
// both sides of the knee.
func (sk *soak) saturateTick() {
	sat := sk.sat
	now := sk.s.Kernel.Now()
	progress := min(max(float64(now-soakWarmup)/float64(sk.cfg.Duration), 0), 1)
	batch := 1 + int(progress*float64(satMaxBatch-1))
	for i := 0; i < batch; i++ {
		seq := len(sat.tasks)
		st := &satTask{
			optional: sat.rng.Float64() < satOptionalFrac,
			deadline: now + saturateDeadline,
		}
		sat.tasks = append(sat.tasks, st)
		task := vcloud.Task{
			Ops:         satTaskOps,
			InputBytes:  satInputBytes,
			OutputBytes: satOutputBytes,
			Deadline:    st.deadline,
			Optional:    st.optional,
		}
		err := sat.gov.Submit(task, func(r vcloud.TaskResult) {
			sk.onSatOutcome(seq, r)
		})
		if err != nil {
			sk.report.SatRefused++
			sk.event("sat %d refused at %s", seq, now)
			continue
		}
		sk.report.SatSubmitted++
		if !st.optional {
			sk.report.SatRequired++
		}
	}
}

// onSatOutcome records a congestion-workload callback and checks the
// deadline and shed contracts: a completion meets its deadline, and
// load-shedding may only ever hit optional work.
func (sk *soak) onSatOutcome(seq int, r vcloud.TaskResult) {
	st := sk.sat.tasks[seq]
	st.fired++
	if st.fired > 1 {
		sk.violate("sat seq %d reported %d outcomes (a governor callback fires at most once)", seq, st.fired)
		return
	}
	if r.OK {
		sk.report.SatCompleted++
		if now := sk.s.Kernel.Now(); now > st.deadline {
			sk.violate("sat seq %d completed at %s after its deadline %s", seq, now, st.deadline)
		}
		sk.event("sat %d ok latency=%s", seq, r.Latency)
		return
	}
	switch r.Reason {
	case vcloud.ReasonShed:
		sk.report.SatShed++
		if !st.optional {
			sk.violate("sat seq %d: required task was load-shed (only optional work may shed)", seq)
		}
	case vcloud.ReasonAdmission:
		sk.report.SatAdmission++
	case vcloud.ReasonBackpressure:
		sk.report.SatBackpressured++
	default:
		sk.report.SatFailed++
	}
	sk.event("sat %d failed reason=%q", seq, r.Reason)
}

// saturateStorm is the congestion storm branch: half the draws are loss
// bursts (the uplink's loss probability spikes for a few seconds), half
// are brief hard outages. Both are exactly the disturbances the
// delay-gradient estimator exists to ride out.
func (sk *soak) saturateStorm() {
	rng := sk.sat.rng
	if rng.Float64() < 0.5 {
		p := 0.2 + rng.Float64()*0.4
		dur := sim.Time((3 + rng.Float64()*5) * float64(time.Second))
		sk.w.Injector.Apply(faults.Event{Kind: faults.UplinkLoss, Prob: p, Dur: dur})
		return
	}
	dur := sim.Time((1 + rng.Float64()*2) * float64(time.Second))
	sk.w.Injector.Apply(faults.Event{Kind: faults.UplinkDown, Dur: dur})
}

// checkSaturate audits the saturation invariants on every sweep.
func (sk *soak) checkSaturate() {
	sat := sk.sat
	for i := 0; i < sat.gov.NumTiersConfigured(); i++ {
		if out, lim := sat.gov.Outstanding(i), sat.gov.QueueLimit(i); out > lim {
			sk.violate("saturation: tier %d outstanding %d exceeds queue bound %d (queues must stay bounded)",
				i, out, lim)
		}
	}
	// The FIFO backlog is bounded by tail drop: at most the queue cap
	// plus the transfer the channel is currently serving.
	params := sat.uplink.Params()
	maxService := sim.Time(float64(satInputBytes+satOutputBytes) * 8 / (params.BandwidthMbps * 1e6) * float64(time.Second))
	if qd := sat.uplink.QueueDelay(); qd > params.MaxQueueDelay+2*maxService {
		sk.violate("saturation: uplink queue delay %s exceeds bound %s (tail drop must bound the backlog)",
			qd, params.MaxQueueDelay+2*maxService)
	}
	// The estimate may be wrong but never unphysical.
	if est, capBps := sat.sender.EstimateBps(), params.BandwidthMbps*1e6; est > capBps || est <= 0 {
		sk.violate("saturation: bandwidth estimate %.0f bps outside channel capacity (0, %.0f] (estimates must stay physical)",
			est, capBps)
	}
}
