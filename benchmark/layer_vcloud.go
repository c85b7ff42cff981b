package main

import (
	"vcloud"
	"vcloud/internal/attack"
	ivcloud "vcloud/internal/vcloud"
)

// Adapter for the cloud stack. The facade's DeployCloud fixes the
// deployment config; cloud_storm needs failover, fencing, a dependability
// policy and a trust engine, so it calls Deploy itself. TaskValue and the
// Byzantine result-tamper are not re-exported either.

// deployCloud assembles a cloud with an explicit config.
func deployCloud(s *vcloud.Scenario, arch vcloud.Architecture, cfg vcloud.CloudConfig, stats *vcloud.CloudStats) (*vcloud.Cloud, error) {
	return ivcloud.Deploy(s, arch, cfg, stats)
}

// taskValue is the reference result an honest worker computes for task t
// once the controller has assigned it id.
func taskValue(t vcloud.Task, id ivcloud.TaskID) uint64 {
	t.ID = id
	return ivcloud.TaskValue(t)
}

// byzantify makes a member lie about every result.
func byzantify(m *ivcloud.Member) error {
	_, err := attack.Byzantify(m, 1, nil)
	return err
}

// probeCheckpointCodec times the checkpoint encoder and decoder on the
// checkpoint the workload's own busiest live controller holds at the end
// of the run: same members, same task table depth.
func probeCheckpointCodec(layer map[string]float64, d *vcloud.Cloud) {
	var best *ivcloud.Controller
	for _, c := range d.ActiveControllers() {
		if best == nil || c.NumMembers() > best.NumMembers() {
			best = c
		}
	}
	if best == nil {
		return
	}
	ck := best.Checkpoint()
	var data []byte
	const n = 2000
	layer["vcloud.probe_ckpt_encode_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			data = ivcloud.EncodeCheckpoint(ck)
		}
	})
	layer["vcloud.probe_ckpt_decode_ns"] = perCallNs(n, func() {
		for i := 0; i < n; i++ {
			_, _ = ivcloud.DecodeCheckpoint(data) // a fresh encoding always decodes
		}
	})
}
