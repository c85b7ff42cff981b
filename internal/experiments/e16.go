package experiments

import (
	"fmt"
	"time"

	"vcloud/internal/metrics"
	"vcloud/internal/radio"
	"vcloud/internal/roadnet"
	"vcloud/internal/scenario"
	"vcloud/internal/sim"
	"vcloud/internal/vcloud"
)

// E16CongestionPlacement measures the value of congestion *feedback* in
// offload placement (§III's resource-management challenge under a
// shared, lossy uplink). Three placement strategies run the identical
// seeded task stream — a load ramp that crosses the cloud uplink's
// capacity, with seeded loss bursts layered on top — against the
// identical three destinations: the vehicular cloud itself, an RSU edge
// server behind a fast short-range link, and a conventional cloud
// behind a contended 8 Mbps uplink:
//
//   - static: the conventional answer — every task goes to the cloud,
//     whatever the channel is doing;
//   - blind: the placement governor with feedback disabled — it ranks
//     tiers by nameplate bandwidth and its own backlog, so it load-
//     balances but cannot see loss bursts or queue growth on the
//     channel (admission control, backpressure and shedding still
//     apply — this arm isolates exactly the feedback signal);
//   - adaptive: the full governor, fed by a delay-gradient bandwidth
//     estimator (internal/radio/gcc.go) riding the cloud uplink's own
//     traffic, plus live queue-delay and loss measurements.
//
// Every task carries a deadline; the score is the deadline-hit rate of
// *required* work (completions past their deadline count as misses, so
// a backend that buffers without bound cannot launder lateness into
// success). The claim under test: once offered load crosses the knee,
// adaptive placement beats both the static and the congestion-blind
// arms on required-work deadline hits, because it reroutes around the
// collapsed channel and sheds optional work before it starves required
// work.
func E16CongestionPlacement(cfg Config) (*Result, error) {
	const vehicles = 16
	horizon := sim.Time(pick(cfg, 80, 160)) * time.Second
	const (
		beat        = 250 * time.Millisecond
		submitUntil = 0.8 // stop submitting here; the tail drains in-flight work
		deadline    = 8 * time.Second
		maxBatch    = 10
		optionFrac  = 0.4
		cloudMbps   = 8
		edgeMbps    = 4
		taskOps     = 1500.0
		inBytes     = 40_000
		outBytes    = 10_000
	)

	type arm struct{ name string }
	arms := []arm{{"static"}, {"blind"}, {"adaptive"}}

	table := metrics.NewTable(
		"E16 — Static vs congestion-blind vs adaptive offload placement (§III overload)",
		"placement", "submitted", "required", "hit-rate", "shed", "rejected", "veh/edge/cloud",
	)
	values := map[string]float64{}

	err := assemble(cfg, table, values, len(arms), func(i int, p *point) error {
		a := arms[i]
		net, err := roadnet.ParkingLot(roadnet.ParkingLotSpec{Aisles: 4, AisleLenM: 150, AisleGapM: 40})
		if err != nil {
			return err
		}
		s, err := scenario.New(scenario.Spec{Seed: cfg.Seed, Network: net, NumVehicles: vehicles, Parked: true})
		if err != nil {
			return err
		}
		stats := &vcloud.Stats{}
		dep, err := vcloud.Deploy(s, vcloud.Stationary, vcloud.DeployConfig{}, stats)
		if err != nil {
			return err
		}

		// The shared cloud uplink: contended, so concurrent transfers
		// queue and tail-drop — the channel the estimator instruments.
		cloudUp, err := radio.NewUplink(s.Kernel, radio.UplinkParams{
			BaseRTT: 60 * time.Millisecond, BandwidthMbps: cloudMbps,
			LossProb: 0.02, JitterFrac: 0.1, Contended: true,
		})
		if err != nil {
			return err
		}
		// The senders' rate floors sit at 5% of nameplate: an estimate
		// pinned at the floor still prices the channel as bad, without
		// modeling transfer times no real channel would produce.
		sender := cloudUp.NewSender(radio.BWEConfig{MinBps: cloudMbps * 1e6 / 20})
		cloud, err := vcloud.NewRemoteCloudSender("cloud", s.Kernel, sender, 50_000, stats)
		if err != nil {
			return err
		}
		// The RSU edge: a beefy MEC box the churnless roadside owns, but
		// behind a narrow shared short-range link — partial relief, not a
		// second datacenter.
		edgeUp, err := radio.NewUplink(s.Kernel, radio.UplinkParams{
			BaseRTT: 10 * time.Millisecond, BandwidthMbps: edgeMbps,
			LossProb: 0.005, JitterFrac: 0.1, Contended: true,
		})
		if err != nil {
			return err
		}
		edgeSender := edgeUp.NewSender(radio.BWEConfig{MinBps: edgeMbps * 1e6 / 20})
		edge, err := vcloud.NewRemoteCloudSender("rsu-edge", s.Kernel, edgeSender, 20_000, stats)
		if err != nil {
			return err
		}

		var gov *vcloud.Governor
		if a.name != "static" {
			gov, err = vcloud.NewGovernor(s.Kernel, vcloud.GovernorConfig{
				Blind: a.name == "blind",
				Tiers: []vcloud.GovernorTier{
					// The vehicle tier's model is honest about the cluster's
					// costs: effective throughput far below the fleet's
					// nameplate sum (replication, coordination), and the V2V
					// mesh is not free for 40 kB payloads.
					{Tier: vcloud.TierVehicle, Backend: vcloud.DeploymentBackend{D: dep},
						CPU: 4000, NominalBps: 2e6, BaseRTT: 20 * time.Millisecond, QueueLimit: 128},
					// The edge and cloud tiers' governor CPU figures model
					// their *aggregate* drain rate: datacenters run admitted
					// tasks in parallel, so their bottleneck is the link —
					// which the queue-delay and bandwidth terms already
					// price — not a serial compute backlog.
					{Tier: vcloud.TierEdge, Backend: edge, CPU: 1e6,
						NominalBps: edgeMbps * 1e6, BaseRTT: 10 * time.Millisecond, Sender: edgeSender, QueueLimit: 128},
					{Tier: vcloud.TierCloud, Backend: cloud, CPU: 2e6,
						NominalBps: cloudMbps * 1e6, BaseRTT: 60 * time.Millisecond, Sender: sender, QueueLimit: 128},
				},
			}, stats)
			if err != nil {
				return err
			}
		}

		if err := s.Start(); err != nil {
			return err
		}
		if err := s.RunFor(5 * time.Second); err != nil {
			return err
		}

		// Seeded loss bursts on the cloud uplink: every 8 s the loss
		// probability spikes for a few seconds. The schedule derives from
		// the "e16.loss" stream, so all three arms face identical weather.
		lossRng := s.Kernel.NewStream("e16.loss")
		burstT, err := s.Kernel.Every(8*time.Second, func() {
			p := 0.55 + lossRng.Float64()*0.25
			dur := sim.Time((3 + lossRng.Float64()*2) * float64(time.Second))
			cloudUp.SetLossProb(p)
			s.Kernel.After(dur, func() { cloudUp.SetLossProb(0.02) })
		})
		if err != nil {
			return err
		}
		defer burstT.Stop()

		// The ramped task stream: batch size climbs from 1 to maxBatch
		// over the horizon, crossing the uplink's capacity around the
		// midpoint. The mix derives from the "e16.load" stream, so all
		// arms see byte-identical work.
		loadRng := s.Kernel.NewStream("e16.load")
		start := s.Kernel.Now()
		submitted, required, requiredHits := 0, 0, 0
		loadT, err := s.Kernel.Every(beat, func() {
			now := s.Kernel.Now()
			progress := float64(now-start) / float64(horizon)
			if progress > submitUntil {
				return
			}
			batch := 1 + int(progress/submitUntil*float64(maxBatch-1))
			for j := 0; j < batch; j++ {
				optional := loadRng.Float64() < optionFrac
				dl := now + deadline
				task := vcloud.Task{Ops: taskOps, InputBytes: inBytes, OutputBytes: outBytes,
					Deadline: dl, Optional: optional}
				done := func(r vcloud.TaskResult) {
					// A completion past its deadline is a miss: lateness is
					// judged here, not trusted to the backend.
					if r.OK && !optional && s.Kernel.Now() <= dl {
						requiredHits++
					}
				}
				var err error
				if gov != nil {
					err = gov.Submit(task, done)
				} else {
					err = cloud.Submit(task, done)
				}
				if err == nil {
					submitted++
					if !optional {
						required++
					}
				}
			}
		})
		if err != nil {
			return err
		}
		defer loadT.Stop()

		if err := s.RunFor(horizon + 15*time.Second); err != nil {
			return err
		}

		hitRate := 0.0
		if required > 0 {
			hitRate = float64(requiredHits) / float64(required)
		}
		shed := stats.Shed.Value()
		rejected := stats.AdmissionRejects.Value() + stats.Backpressured.Value()
		placed := "-/-/all"
		if gov != nil {
			placed = fmt.Sprintf("%d/%d/%d", gov.Placed(0), gov.Placed(1), gov.Placed(2))
		}
		p.addRow(a.name,
			fmt.Sprintf("%d", submitted),
			fmt.Sprintf("%d", required),
			metrics.Pct(hitRate),
			fmt.Sprintf("%d", shed),
			fmt.Sprintf("%d", rejected),
			placed)
		p.set(a.name+"/hitrate", hitRate)
		p.set(a.name+"/shed", float64(shed))
		p.set(a.name+"/rejected", float64(rejected))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{ID: "E16", Title: "congestion-aware offload placement", Table: table, Values: values}, nil
}
