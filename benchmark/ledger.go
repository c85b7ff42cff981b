package main

// spanLayerMetrics derives the span-sourced per-layer metrics of a traced
// repetition, and the shares that rest on them.
func spanLayerMetrics(spans []span, res *repResult) {
	sum := summarize(spans)
	L, X := res.Layer, res.Exact

	timed := sum["bench.timed"].TotalS
	runSelf := sum["Kernel.Run"].SelfS
	L["sim.run_self_s"] = runSelf
	if ev := X["sim.events"]; ev > 0 && runSelf > 0 {
		L["sim.ns_per_event"] = runSelf * 1e9 / ev
	}
	L["scenario.build_s"] = sum["scenario.New"].TotalS
	L["roadnet.build_s"] = sum["roadnet.build"].TotalS
	L["pki.enroll_s"] = sum["pki.TA.Enroll"].TotalS

	submits := []string{"vcloud.SubmitAnywhere", "vcloud.SubmitJobAnywhere", "vcloud.Governor.Submit"}
	for _, name := range submits {
		L["vcloud.submit_s"] += sum[name].SelfS
	}
	L["vcloud.submit_ns_p50"] = sum["vcloud.SubmitAnywhere"].P50Ns
	if sum["vcloud.SubmitAnywhere"].Count == 0 {
		L["vcloud.submit_ns_p50"] = sum["vcloud.Governor.Submit"].P50Ns
	}
	L["store.put_s"] = sum["store.Put"].TotalS
	L["store.get_s"] = sum["store.Get"].TotalS
	L["store.repair_s"] = sum["store.Fix"].TotalS
	L["store.put_ns_p50"] = sum["store.Put"].P50Ns
	L["store.get_ns_p50"] = sum["store.Get"].P50Ns
	L["access.evaluate_ns_p50"] = sum["access.Evaluate"].P50Ns
	L["access.open_ns_p50"] = sum["access.Open"].P50Ns

	// est_share = count × isolated-probe ns ÷ sim.run_self_s: an estimate
	// of how much of the kernel's run a layer's hot function accounts
	// for. The probe runs the function alone, warm, so it is a floor. The
	// geo and mobility counts are derived figures (derivedLayer), so their
	// shares assume the tick period and index-rewrite pattern of the
	// parent commit.
	var estS float64 // seconds of the run the estimates account for
	if runSelf > 0 {
		est := func(ns float64) float64 { return ns / 1e9 / runSelf }
		geoNs := L["geo.updates"]*L["geo.probe_update_ns"] + X["radio.sent"]*L["geo.probe_query_ns"]
		mobNs := L["mobility.steps"] * L["mobility.probe_step_ns_per_veh"]
		cand := X["radio.delivered"] + X["radio.lost_range"] + X["radio.lost_load"]
		radioNs := cand * L["radio.probe_send_ns_per_rx"]
		simNs := X["sim.events"] * L["sim.probe_sched_fire_ns"]
		// Every completed handshake signs twice (initiator and gate); a
		// rejected one counts twice under failed (the gate's rejection and
		// the initiator's timeout) and signed once.
		signs := 2*X["auth.handshakes_ok"] + X["auth.handshakes_failed"]/2
		cryptoNs := X["auth.verify_ops"]*L["cryptoprim.probe_verify_ns"] + signs*L["cryptoprim.probe_sign_ns"]
		L["geo.est_share"] = est(geoNs)
		L["mobility.est_share"] = est(mobNs)
		L["radio.est_share"] = est(radioNs)
		L["cryptoprim.est_share"] = est(cryptoNs)
		estS = (geoNs + mobNs + radioNs + simNs + cryptoNs) / 1e9
	}
	// unattributed = the share of the timed interval that neither an
	// estimate nor a span other than Kernel.Run accounts for.
	if timed > 0 {
		self := selfTimes(spans)
		var spanS float64
		for i, s := range spans {
			if s.Name != "Kernel.Run" && s.Name != "bench.timed" && s.Name != "bench.setup" && underTimed(spans, i) {
				spanS += float64(self[i]) / 1e9
			}
		}
		L["bench.unattributed_share"] = 1 - (estS+spanS)/timed
	}
}

// underTimed reports whether span i descends from the timed interval.
func underTimed(spans []span, i int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if spans[p].Name == "bench.timed" {
			return true
		}
	}
	return false
}
