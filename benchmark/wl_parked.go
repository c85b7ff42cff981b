package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"vcloud"
)

// parked_kv_offload: a stationary parking-lot cloud (no vehicle moves)
// serving a replicated and an erasure-coded KV store under
// permanent-departure churn, write-heavy (4 puts : 1 get) in the first
// half of the run and read-heavy (1 : 4) in the second, beside a stream
// of tasks the placement governor routes between the lot's own cloud and
// a datacenter behind a contended, lossy uplink with a bandwidth
// estimator.
//
// Open loop: one KV op per 5 ms beat and one offloaded task per 50 ms
// beat, each at a seeded instant inside its beat. Op = put, get or
// offloaded task; deadlines 60 ms for KV ops and 3 s for tasks. KV ops
// alternate between the two stores and carry real payloads, so the
// erasure coder and the quorum logic do real work.
const (
	parkedVehicles    = 60
	parkedWarmup      = 8 * time.Second
	parkedHorizon     = 150 * time.Second
	parkedDrain       = 6 * time.Second
	parkedKVEvery     = 5 * time.Millisecond
	parkedTaskEvery   = 50 * time.Millisecond
	parkedKVDeadline  = 60 * time.Millisecond
	parkedTaskDead    = 3 * time.Second
	parkedKeys        = 256
	parkedObjBytes    = 32 << 10
	parkedDepartEvery = 2 * time.Second
	parkedRepairEvery = 2 * time.Second
	parkedUplinkMbps  = 2
	parkedCloudCPU    = 1e6
	parkedTaskOps     = 1000
	parkedTaskIn      = 20_000
	parkedTaskOut     = 5_000
	parkedOptional    = 0.4
)

var parkedClients = []storeClient{"c0", "c1", "c2", "c3"}

// kvWrite is the harness's record of one write of a key.
type kvWrite struct {
	op      int
	version storeVersion
	placed  []addr
}

// kvStore is one backend with the harness's own books on it.
type kvStore struct {
	name      string
	b         vcloud.StorageBackend
	threshold int // surviving placed members that guarantee durability
	quorum    int // placed members whose reply acknowledges a write
	fragDiv   int // object bytes per placed member = size / fragDiv
	// writes maps key -> version -> the write that made it.
	writes map[storeKey]map[storeVersion]kvWrite
	latest map[storeKey]kvWrite // latest acked write per key
	lostAt map[storeKey]storeVersion
	marks  map[storeClient]map[storeKey]storeVersion
	lost   int
	acked  int
}

type parkedKV struct {
	e       *env
	s       *vcloud.Scenario
	d       *vcloud.Cloud
	stats   *vcloud.CloudStats
	inj     *vcloud.FaultInjector
	stores  [2]*kvStore
	fleet   []addr
	pos     map[addr]vcloud.Point
	gate    addr
	gone    map[addr]time.Duration // permanently departed, and when
	uplink  *vcloud.Uplink
	sender  *vcloud.UplinkSender
	gov     *vcloud.Governor
	ops     opLog
	horizon time.Duration
	err     error

	departSeq  []int // fleet indexes in departure order
	departures int
	queueMs    []float64 // sampled uplink queue delay
	bweErrSum  float64
	bweSamples int
	watch      *kernelWatch
	base       substrateBase
	statsBase  vcloud.CloudStats
	upBase     [4]uint64
	faultBase  int
}

func buildParkedKV(e *env) (instance, error) {
	w := &parkedKV{e: e, stats: &vcloud.CloudStats{}, gone: map[addr]time.Duration{}, pos: map[addr]vcloud.Point{}}
	n := e.count(parkedVehicles, 16)
	// Task inputs of 20 KB cross the lot's radio to the member that runs
	// them: at the default 6 Mbps a dozen a second would fill the air.
	rp := radioDefaults()
	rp.BitrateMbps = 27
	s, err := buildWorld(e.tr, parkingLot(4), vcloud.ScenarioSpec{Seed: subSeed(e.seed, "fleet"), NumVehicles: n, Parked: true, BeaconPeriod: time.Second, Radio: rp})
	if err != nil {
		return nil, err
	}
	w.s = s
	gate, err := s.AddRSU(vcloud.Point{})
	if err != nil {
		return nil, err
	}
	w.gate = gate.Addr()
	for _, id := range s.VehicleIDs() {
		a := addr(id)
		w.fleet = append(w.fleet, a)
		w.pos[a], _ = s.Medium.Position(a)
	}
	if w.inj, err = vcloud.NewFaultInjector(s); err != nil {
		return nil, err
	}

	// Both stores place against the injector's ground truth: a member is
	// there unless it departed, and reachable unless cut off from the gate.
	view := storeView(
		func() []addr {
			ms := make([]addr, 0, len(w.fleet))
			for _, a := range w.fleet {
				if _, out := w.gone[a]; !out {
					ms = append(ms, a)
				}
			}
			return ms
		},
		func(a addr) bool {
			_, out := w.gone[a]
			return !out && !w.inj.Cut(w.gate, a)
		},
	)
	rcfg := storeConfig(w.rtt)
	rcfg.N, rcfg.W, rcfg.R = 3, 2, 2
	rep, err := vcloud.NewReplicatedStore(rcfg, view, &vcloud.StorageStats{})
	if err != nil {
		return nil, err
	}
	ecfg := storeConfig(w.rtt)
	ecfg.K, ecfg.M = 4, 2
	ec, err := vcloud.NewErasureCodedStore(ecfg, view, &vcloud.StorageStats{})
	if err != nil {
		return nil, err
	}
	w.stores[0] = newKVStore("replicated", rep, 1, 2, 1)
	w.stores[1] = newKVStore("erasure", ec, 4, 6, 4)

	// The lot's cloud drives the replicated store: member expiry and
	// leaves trigger its repair passes on top of the harness's own.
	cfg := vcloud.CloudConfig{Storage: rep}
	did := e.tr.begin("vcloud.Deploy", -1)
	w.d, err = deployCloud(s, vcloud.Stationary, cfg, w.stats)
	e.tr.end(did)
	if err != nil {
		return nil, err
	}

	// Offload path: the lot's cloud, or a datacenter across the uplink.
	up := vcloud.DefaultUplinkParams()
	up.BandwidthMbps, up.LossProb, up.JitterFrac, up.Contended = parkedUplinkMbps, 0.02, 0.1, true
	if w.uplink, err = vcloud.NewUplink(s, up); err != nil {
		return nil, err
	}
	w.sender = w.uplink.NewSender(vcloud.BWEConfig{})
	dc, err := vcloud.NewRemoteCloudSender("datacenter", s, w.sender, parkedCloudCPU, w.stats)
	if err != nil {
		return nil, err
	}
	w.gov, err = vcloud.NewGovernor(s, vcloud.GovernorConfig{Tiers: []vcloud.GovernorTier{
		{Tier: vcloud.TierVehicle, Backend: vcloud.DeploymentBackend{D: w.d}, CPU: float64(n) * 1000},
		{Tier: vcloud.TierCloud, Backend: dc, CPU: parkedCloudCPU, NominalBps: parkedUplinkMbps * 1e6, BaseRTT: up.BaseRTT, Sender: w.sender},
	}}, w.stats)
	if err != nil {
		return nil, err
	}

	if err := s.Start(); err != nil {
		return nil, err
	}
	w.watch = watchKernel(s)
	if err := advance(w.e.tr, w.s, "Kernel.Run.warmup", parkedWarmup, &w.err); err != nil {
		return nil, err
	}
	if len(w.d.ActiveControllers()) == 0 || w.d.ActiveControllers()[0].NumMembers() == 0 {
		return nil, fmt.Errorf("the lot's cloud did not form during warm-up")
	}

	w.horizon = e.span(parkedHorizon, 6*time.Second)
	t0 := s.Kernel.Now()
	w.scheduleKV(t0)
	w.scheduleTasks(t0)
	w.scheduleChurn(t0)
	for _, tick := range []struct {
		every time.Duration
		fn    func()
	}{{parkedRepairEvery, w.repair}, {time.Second, w.audit}, {100 * time.Millisecond, w.sampleUplink}} {
		if _, err := s.Kernel.Every(tick.every, tick.fn); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// rtt models the time to fetch size bytes from member a, in seconds. It
// grows with the member's distance from the gate, so quorum latencies
// differ between placements.
func (w *parkedKV) rtt(a addr, size int) float64 {
	return 0.004 + float64(size)/(3<<20) + 0.00005*w.pos[a].Dist(vcloud.Point{})
}

func newKVStore(name string, b vcloud.StorageBackend, threshold, quorum, fragDiv int) *kvStore {
	return &kvStore{
		name: name, b: b, threshold: threshold, quorum: quorum, fragDiv: fragDiv,
		writes: map[storeKey]map[storeVersion]kvWrite{},
		latest: map[storeKey]kvWrite{},
		lostAt: map[storeKey]storeVersion{},
		marks:  map[storeClient]map[storeKey]storeVersion{},
	}
}

// payload is the object an op writes: a pure function of the op id, so a
// read can be checked against the write that produced its version.
func payload(op int) []byte {
	data := make([]byte, parkedObjBytes)
	x := uint64(op)*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= len(data); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := 0; j < 8; j++ {
			data[i+j] = byte(x >> (8 * j))
		}
	}
	return data
}

// scheduleKV lays out the key sequence: puts rotate over the key space,
// gets draw a key already written, and the put:get mix flips from 4:1 to
// 1:4 at half time.
func (w *parkedKV) scheduleKV(t0 time.Duration) {
	rng := stream(w.e.seed, "parked.keys")
	written := [2]int{}
	i := 0
	for t := time.Duration(0); t < w.horizon; t, i = t+parkedKVEvery, i+1 {
		due := t0 + t + time.Duration(rng.Int63n(int64(parkedKVEvery)))
		st := i % 2
		putShare := 0.8
		if t >= w.horizon/2 {
			putShare = 0.2
		}
		client := parkedClients[rng.Intn(len(parkedClients))]
		if written[st] == 0 || rng.Float64() < putShare {
			key := storeKey(fmt.Sprintf("obj-%03d", written[st]%parkedKeys))
			written[st]++
			op := w.ops.add("put", due, parkedKVDeadline)
			w.s.Kernel.At(due, func() { w.put(op, w.stores[st], client, key) })
		} else {
			key := storeKey(fmt.Sprintf("obj-%03d", rng.Intn(min(written[st], parkedKeys))))
			op := w.ops.add("get", due, parkedKVDeadline)
			w.s.Kernel.At(due, func() { w.get(op, w.stores[st], client, key) })
		}
	}
}

func (w *parkedKV) scheduleTasks(t0 time.Duration) {
	rng := stream(w.e.seed, "parked.tasks")
	for t := time.Duration(0); t < w.horizon; t += parkedTaskEvery {
		due := t0 + t + time.Duration(rng.Int63n(int64(parkedTaskEvery)))
		task := vcloud.Task{
			Ops: parkedTaskOps * (0.93 + 0.14*rng.Float64()), InputBytes: parkedTaskIn, OutputBytes: parkedTaskOut,
			Deadline: due + parkedTaskDead, Optional: rng.Float64() < parkedOptional,
		}
		op := w.ops.add("offload", due, parkedTaskDead)
		w.s.Kernel.At(due, func() { w.offload(op, task) })
	}
}

// scheduleChurn draws the departure order and the uplink's disturbances
// from the seed: every few seconds one vehicle drives away for good with
// its disk, and once a third of the fleet is out the longest-departed
// returns wiped.
func (w *parkedKV) scheduleChurn(t0 time.Duration) {
	rng := stream(w.e.seed, "parked.churn")
	w.departSeq = rng.Perm(len(w.fleet))
	for t := parkedDepartEvery; t < w.horizon; t += parkedDepartEvery {
		w.s.Kernel.At(t0+t+time.Duration(rng.Int63n(int64(time.Second))), w.depart)
	}
	// Every four seconds a stretch of the lot is cut off from the gate for a
	// few seconds (a truck parks in the way): holders inside it are
	// unreachable, so quorums over them fail until it clears. Written in
	// the program's plan language.
	var plan strings.Builder
	b := w.s.Network.Bounds()
	for t := 2 * time.Second; t < w.horizon; t += 4 * time.Second {
		at := t0 + t + time.Duration(rng.Int63n(int64(time.Second)))
		r := 55 + rng.Intn(20)
		// Never over the gate itself: that would cut off the whole lot.
		var c vcloud.Point
		for c = (vcloud.Point{}); c.Dist(vcloud.Point{}) < float64(r+15); {
			c = vcloud.Point{X: b.Min.X + rng.Float64()*b.Width(), Y: b.Min.Y + rng.Float64()*b.Height()}
		}
		fmt.Fprintf(&plan, "%dms partition %.0f,%.0f %d %dms\n", at.Milliseconds(), c.X, c.Y, r, 2000+rng.Intn(1000))
	}
	if p, err := vcloud.ParseFaultPlan(plan.String()); err != nil {
		w.err = fmt.Errorf("generated fault plan: %w", err)
	} else if err := w.inj.Schedule(p); err != nil {
		w.err = err
	}
	// The uplink alternates a loss burst and a short outage every five
	// seconds; strength, length and instant come from the seed.
	base := w.uplink.Params().LossProb
	for t, i := 3*time.Second, 0; t < w.horizon; t, i = t+5*time.Second, i+1 {
		at := t0 + t + time.Duration(rng.Int63n(int64(time.Second)))
		if i%2 == 0 {
			p, dur := 0.2+0.3*rng.Float64(), time.Duration(2000+rng.Intn(1000))*time.Millisecond
			w.s.Kernel.At(at, func() { w.uplink.SetLossProb(p) })
			w.s.Kernel.At(at+dur, func() { w.uplink.SetLossProb(base) })
		} else {
			dur := time.Duration(500+rng.Intn(500)) * time.Millisecond
			w.s.Kernel.At(at, func() { w.uplink.SetAvailable(false) })
			w.s.Kernel.At(at+dur, func() { w.uplink.SetAvailable(true) })
		}
	}
}

func (st *kvStore) mark(c storeClient, k storeKey) storeVersion { return st.marks[c][k] }

func (st *kvStore) advance(c storeClient, k storeKey, v storeVersion) {
	m := st.marks[c]
	if m == nil {
		m = map[storeKey]storeVersion{}
		st.marks[c] = m
	}
	if v > m[k] {
		m[k] = v
	}
}

// quorumRTT is the modelled time until a write is acknowledged: the
// quorum'th smallest fetch time among the members it was placed on.
func (w *parkedKV) quorumRTT(st *kvStore, placed []addr) time.Duration {
	rtts := make([]float64, len(placed))
	for i, a := range placed {
		rtts[i] = w.rtt(a, parkedObjBytes/st.fragDiv)
	}
	sort.Float64s(rtts)
	q := min(st.quorum, len(rtts))
	return time.Duration(rtts[q-1] * float64(time.Second))
}

func (w *parkedKV) put(op int, st *kvStore, c storeClient, k storeKey) {
	now := w.s.Kernel.Now()
	gid := w.e.tr.begin("bench.payload", int64(op))
	data := payload(op)
	w.e.tr.end(gid)
	id := w.e.tr.begin("store.Put", int64(op))
	ack := storePut(st.b, c, k, data)
	w.e.tr.end(id)
	if ack.Version != 0 {
		byV := st.writes[k]
		if byV == nil {
			byV = map[storeVersion]kvWrite{}
			st.writes[k] = byV
		}
		byV[ack.Version] = kvWrite{op: op, version: ack.Version, placed: ack.Placed}
	}
	if !ack.Acked {
		w.ops.finish(op, now, false, uint64(ack.Version))
		return
	}
	st.acked++
	st.latest[k] = kvWrite{op: op, version: ack.Version, placed: ack.Placed}
	st.advance(c, k, ack.Version)
	w.ops.finish(op, now+w.quorumRTT(st, ack.Placed), true, uint64(ack.Version))
}

func (w *parkedKV) get(op int, st *kvStore, c storeClient, k storeKey) {
	now := w.s.Kernel.Now()
	id := w.e.tr.begin("store.Get", int64(op))
	res, ok := storeGet(st.b, c, k)
	w.e.tr.end(id)
	if !ok {
		w.ops.finish(op, now, false, 0)
		return
	}
	if res.Version < st.mark(c, k) {
		w.ops.breach("%s: session client %s read %s backwards (v%d after v%d)", st.name, c, k, res.Version, st.mark(c, k))
	}
	st.advance(c, k, res.Version)
	// The bytes served must be the bytes the write of that version stored.
	good := false
	if wr, known := st.writes[k][res.Version]; known {
		gid := w.e.tr.begin("bench.payload", int64(op))
		good = bytes.Equal(res.Data, payload(wr.op))
		w.e.tr.end(gid)
	}
	lat := time.Duration(res.Latency * float64(time.Second))
	w.ops.finish(op, now+lat, good, uint64(res.Version))
}

func (w *parkedKV) offload(op int, task vcloud.Task) {
	id := w.e.tr.begin("vcloud.Governor.Submit", int64(op))
	err := w.gov.Submit(task, func(r vcloud.TaskResult) {
		cid := w.e.tr.begin("callback.task_result", int64(op))
		w.ops.finish(op, w.s.Kernel.Now(), r.OK, uint64(len(r.Reason)))
		w.e.tr.end(cid)
	})
	w.e.tr.end(id)
	if err != nil {
		w.ops.finish(op, w.s.Kernel.Now(), false, 0)
	}
}

// depart removes the next vehicle of the seeded order for good: radio
// dead, disk forgotten by both stores. With a third of the fleet out, the
// longest-departed returns first, wiped.
func (w *parkedKV) depart() {
	now := w.s.Kernel.Now()
	if len(w.gone) > len(w.fleet)/3 {
		back, when := addr(-1), time.Duration(0)
		for _, a := range w.fleet {
			if t, out := w.gone[a]; out && (back < 0 || t < when) {
				back, when = a, t
			}
		}
		delete(w.gone, back)
		w.inj.RecoverNode(back)
	}
	for range w.fleet {
		a := w.fleet[w.departSeq[w.departures%len(w.fleet)]]
		w.departures++
		if _, out := w.gone[a]; out {
			continue
		}
		w.gone[a] = now
		w.inj.CrashNode(a)
		for _, st := range w.stores {
			st.b.Forget(a)
		}
		return
	}
}

func (w *parkedKV) repair() {
	for _, st := range w.stores {
		id := w.e.tr.begin("store.Fix", -1)
		storeFix(st.b)
		w.e.tr.end(id)
	}
}

// audit checks durability once per virtual second: the latest acked
// write of every key must still be reconstructible while enough of the
// members it was placed on have not departed. Below that threshold the
// service is allowed to lose it; the loss is counted.
func (w *parkedKV) audit() {
	for _, st := range w.stores {
		keys := make([]storeKey, 0, len(st.latest))
		for k := range st.latest {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			wr := st.latest[k]
			v, ok := st.b.Durable(k)
			if ok && v >= wr.version {
				continue
			}
			survivors := 0
			for _, a := range wr.placed {
				if _, out := w.gone[a]; !out {
					survivors++
				}
			}
			if survivors >= st.threshold {
				w.ops.breach("%s: acked write %s v%d lost with %d of %d holders surviving (threshold %d)",
					st.name, k, wr.version, survivors, len(wr.placed), st.threshold)
			}
			if st.lostAt[k] < wr.version {
				st.lostAt[k] = wr.version
				st.lost++
			}
		}
	}
	for _, c := range w.d.ActiveControllers() {
		for _, v := range c.InvariantViolations() {
			w.ops.breach("controller %d: %s", c.Addr(), v)
		}
	}
}

// sampleUplink records the FIFO backlog and how far the bandwidth
// estimate sits from the link's capacity, ten times a virtual second.
func (w *parkedKV) sampleUplink() {
	w.queueMs = append(w.queueMs, float64(w.uplink.QueueDelay())/float64(time.Millisecond))
	if capBps := w.uplink.Params().BandwidthMbps * 1e6; w.uplink.Available() {
		d := w.sender.EstimateBps() - capBps
		if d < 0 {
			d = -d
		}
		w.bweErrSum += d / capBps
		w.bweSamples++
	}
}

func (w *parkedKV) run() error {
	w.base = snapSubstrate(w.s)
	w.statsBase = *w.stats
	w.upBase[0], w.upBase[1], w.upBase[2], w.upBase[3] = w.uplink.Counters()
	w.faultBase = w.inj.Stats().Applied
	w.queueMs, w.bweErrSum, w.bweSamples = w.queueMs[:0], 0, 0
	w.watch.reset()
	return advance(w.e.tr, w.s, "Kernel.Run", w.horizon+parkedDrain, &w.err)
}

func (w *parkedKV) finish() (*outcome, error) {
	w.audit()
	c := map[string]float64{}
	substrateCounters(c, w.s, w.base, w.watch)
	var writes, acked, reads, served, repaired, moved float64
	for _, st := range w.stores {
		ss := st.b.Stats()
		writes += float64(ss.Writes.Value())
		acked += float64(ss.WriteAcks.Value())
		reads += float64(ss.Reads.Value())
		served += float64(ss.ReadsOK.Value())
		repaired += float64(ss.ReReplicas.Value())
		moved += float64(ss.BytesMoved.Value())
		c["store.lost_acked"] += float64(st.lost)
		if got := int(ss.WriteAcks.Value()); got != st.acked {
			w.ops.breach("%s: store counted %d acked writes, clients saw %d", st.name, got, st.acked)
		}
	}
	c["store.writes"], c["store.acked"], c["store.reads"], c["store.served"], c["store.repaired"] = writes, acked, reads, served, repaired
	if acked > 0 {
		c["store.write_amplification"] = moved / (acked * parkedObjBytes)
	}
	if lat := w.ops.latenciesOf("put"); len(lat) > 0 {
		c["store.put_vt_p50_ms"] = percentile(lat, 50)
	}
	if lat := w.ops.latenciesOf("get"); len(lat) > 0 {
		c["store.get_vt_p50_ms"] = percentile(lat, 50)
	}
	st, b := w.stats, &w.statsBase
	delta := func(now, was uint64) float64 { return float64(now - was) }
	c["vcloud.submitted"] = delta(st.Submitted.Value(), b.Submitted.Value())
	c["vcloud.completed"] = delta(st.Completed.Value(), b.Completed.Value())
	c["vcloud.failed"] = delta(st.Failed.Value(), b.Failed.Value())
	c["vcloud.retries"] = delta(st.Retries.Value(), b.Retries.Value())
	c["vcloud.gov_placed_vehicle"] = float64(w.gov.Placed(0))
	c["vcloud.gov_placed_cloud"] = float64(w.gov.Placed(1))
	c["vcloud.gov_shed"] = delta(st.Shed.Value(), b.Shed.Value())
	c["vcloud.gov_rejected"] = delta(st.AdmissionRejects.Value(), b.AdmissionRejects.Value()) + delta(st.Backpressured.Value(), b.Backpressured.Value())
	c["vcloud.gov_switches"] = delta(st.TierSwitches.Value(), b.TierSwitches.Value())
	_, delivered, lost, dropped := w.uplink.Counters()
	c["radio.uplink_delivered"] = float64(delivered - w.upBase[1])
	c["radio.uplink_lost"] = float64(lost - w.upBase[2])
	c["radio.uplink_dropped"] = float64(dropped - w.upBase[3])
	if len(w.queueMs) > 0 {
		q := append([]float64(nil), w.queueMs...)
		sort.Float64s(q)
		_, c["radio.uplink_queue_p99_ms"] = tailPercentile(q)
	}
	if w.bweSamples > 0 {
		c["radio.bwe_error_ratio"] = w.bweErrSum / float64(w.bweSamples)
	}
	c["faults.injected"] = float64(w.departures + w.inj.Stats().Applied - w.faultBase)
	return opsOutcome(&w.ops, c, derivedSubstrate(0, 0)), nil // nobody moves
}

func (w *parkedKV) probes(layer map[string]float64) []string {
	probeSubstrate(layer, w.s, w.watch.pendingMax, false)
	probeShortestPath(layer, w.s.Network, w.e.seed)
	return nil
}
