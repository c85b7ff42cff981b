package vcloud

import (
	"fmt"
	"time"

	"vcloud/internal/radio"
	"vcloud/internal/sim"
)

// The placement governor is the adaptive half of congestion-aware
// offload (ISSUE 8): it fronts the three tiers of the paper's Fig. 2
// comparison — vehicle cluster, RSU edge, conventional cloud — as one
// Backend, and routes each submission to the tier whose *estimated*
// completion time is best given live bandwidth, loss and queue-delay
// feedback (internal/radio/gcc.go). Around that choice it wraps the
// overload machinery: deadline-aware admission control, bounded per-tier
// queues with structured rejection instead of unbounded buffering,
// shedding of optional work first, and hysteresis so placement does not
// flap between near-equal tiers.

// Tier identifies an offload destination class — the three columns of the
// paper's Fig. 2 comparison.
type Tier int

// Offload tiers.
const (
	TierVehicle Tier = iota // the vehicular cloud itself (V2V)
	TierEdge                // RSU edge servers (ETSI-MEC style)
	TierCloud               // conventional cloud over the uplink
	NumTiers
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierVehicle:
		return "vehicle"
	case TierEdge:
		return "edge"
	case TierCloud:
		return "cloud"
	default:
		return "unknown"
	}
}

// GovernorTier describes one offload destination available to the
// governor.
type GovernorTier struct {
	// Tier labels the destination class (TierVehicle/TierEdge/TierCloud).
	Tier Tier
	// Backend is where accepted work actually runs.
	Backend Backend
	// CPU is the tier's nominal aggregate compute rate (ops/s), used for
	// the compute and backlog terms of the completion-time estimate.
	CPU float64
	// NominalBps is the tier's nameplate network bandwidth toward the
	// submitter. Congestion-blind placement always believes it; adaptive
	// placement uses it only until live estimates arrive. Zero means the
	// tier is network-free (local cluster).
	NominalBps float64
	// BaseRTT is the tier's healthy round-trip latency (zero when
	// network-free).
	BaseRTT sim.Time
	// Sender, when non-nil, is a co-located live estimate source: the
	// governor reads its bandwidth/loss/queue view directly.
	Sender *radio.Sender
	// QueueLimit bounds outstanding submissions on this tier; a full
	// tier backpressures instead of buffering without bound. Default 32.
	QueueLimit int
}

const (
	// hysteresis is the improvement factor a rival tier must beat the
	// currently preferred tier's estimate by before placement switches.
	hysteresis = 1.25
	// shedUtilization is the queue-occupancy fraction of the chosen tier
	// at or above which optional work is shed to protect required work.
	shedUtilization = 0.8
)

// GovernorConfig tunes the placement governor.
type GovernorConfig struct {
	// Tiers lists the destinations in preference order for ties.
	Tiers []GovernorTier
	// Blind disables congestion feedback: estimates are computed from
	// nameplate figures with empty queues, as a congestion-oblivious
	// scheduler would. Admission, backpressure and shedding still apply
	// — Blind isolates exactly the value of *feedback* (the E16
	// ablation).
	Blind bool
}

// tierState is the governor's runtime view of one destination.
type tierState struct {
	cfg GovernorTier
	// outstanding counts submissions in flight; outstandingOps their
	// total remaining work — the backlog term of the estimate.
	outstanding    int
	outstandingOps float64
	// seq tags submissions so a late release timeout cannot free a slot
	// twice.
	seq     uint64
	pending map[uint64]*pendingSlot
	placed  uint64
}

type pendingSlot struct {
	ops     float64
	timeout sim.EventID
}

// Governor is a congestion-aware placement layer over multiple tiers.
// It implements Backend, so anything that can drive a single backend —
// experiments, the chaos soak, client code — can drive adaptive
// placement unchanged.
type Governor struct {
	kernel *sim.Kernel
	cfg    GovernorConfig
	stats  *Stats
	tiers  []*tierState
	// preferred is the index (into tiers) hysteresis currently favors
	// (-1 before the first placement).
	preferred int
}

// NewGovernor creates a placement governor over the configured tiers.
func NewGovernor(kernel *sim.Kernel, cfg GovernorConfig, stats *Stats) (*Governor, error) {
	if kernel == nil || stats == nil {
		return nil, fmt.Errorf("vcloud: kernel and stats must not be nil")
	}
	if len(cfg.Tiers) == 0 {
		return nil, fmt.Errorf("vcloud: governor needs at least one tier")
	}
	g := &Governor{kernel: kernel, cfg: cfg, stats: stats, preferred: -1}
	for i := range cfg.Tiers {
		tc := cfg.Tiers[i]
		if tc.Backend == nil {
			return nil, fmt.Errorf("vcloud: tier %v backend must not be nil", tc.Tier)
		}
		if tc.CPU <= 0 {
			return nil, fmt.Errorf("vcloud: tier %v CPU must be positive, got %v", tc.Tier, tc.CPU)
		}
		if tc.QueueLimit <= 0 {
			tc.QueueLimit = 32
		}
		g.tiers = append(g.tiers, &tierState{cfg: tc, pending: make(map[uint64]*pendingSlot)})
	}
	return g, nil
}

// Name implements Backend.
func (g *Governor) Name() string {
	if g.cfg.Blind {
		return "governor-blind"
	}
	return "governor"
}

// estimateStaleAfter is the age past which a sender's live view starts
// losing authority. A tier the governor routed away from stops carrying
// traffic, so its estimator stops learning; without decay, one bad
// measurement would condemn a channel forever (and the governor would
// never probe it again). Blending back toward nameplate figures as the
// feedback ages is what re-opens the channel to probe traffic.
const estimateStaleAfter = time.Second

// eta estimates the completion time of a task on a tier: network
// transfer at the believed bandwidth (inflated by observed loss, since
// lost exchanges retry at the client), channel queue delay, base RTT,
// the tier's current backlog, and the task's own compute.
func (g *Governor) eta(t *tierState, task Task) sim.Time {
	bps := t.cfg.NominalBps
	loss := 0.0
	var queue sim.Time
	if !g.cfg.Blind {
		if s := t.cfg.Sender; s != nil {
			bps, loss, queue = s.EstimateBps(), s.LossRate(), s.QueueDelay()
			// Trust decays with feedback age: weight the live view by how
			// recently the channel was actually heard from, falling back
			// toward nameplate. Queue delay stays fully live — it is read
			// off the shared channel's real backlog, not learned.
			if last := s.LastFeedback(); last > 0 {
				if age := g.kernel.Now() - last; age > estimateStaleAfter {
					w := float64(estimateStaleAfter) / float64(age)
					bps = w*bps + (1-w)*t.cfg.NominalBps
					loss *= w
				}
			}
		}
	}
	var net float64
	if bps > 0 {
		net = float64(task.InputBytes+task.OutputBytes) * 8 / bps
		if loss > 0 && loss < 1 {
			net /= 1 - loss
		}
	}
	backlog := t.outstandingOps / t.cfg.CPU
	compute := task.Ops / t.cfg.CPU
	return sim.Time((net+backlog+compute)*float64(time.Second)) + queue + t.cfg.BaseRTT
}

// Submit implements Backend: estimate per-tier completion, admit or
// reject against the deadline, shed optional work under overload,
// backpressure on full queues, and place on the hysteresis-stable best
// tier.
func (g *Governor) Submit(task Task, done func(TaskResult)) error {
	if err := task.Validate(); err != nil {
		return err
	}
	now := g.kernel.Now()

	// Rank tiers by estimated completion; order stays deterministic
	// because ties resolve to the lower configured index.
	etas := make([]sim.Time, len(g.tiers))
	best := 0
	for i, t := range g.tiers {
		etas[i] = g.eta(t, task)
		if etas[i] < etas[best] {
			best = i
		}
	}
	// Hysteresis: keep the preferred tier unless the rival's estimate is
	// better by the configured factor (or the preferred queue is full).
	choice := best
	if g.preferred >= 0 && g.preferred != best {
		p := g.tiers[g.preferred]
		if p.outstanding < p.cfg.QueueLimit &&
			float64(etas[g.preferred]) < hysteresis*float64(etas[best]) {
			choice = g.preferred
		}
	}

	// Admission control: if even the best tier cannot make the deadline,
	// reject now — a structured fast failure beats burning bandwidth on
	// work that will blow its deadline anyway.
	if task.Deadline > 0 && now+etas[best] > task.Deadline {
		return g.reject(task, done, ReasonAdmission)
	}

	// Load shedding: optional work is dropped once the chosen tier runs
	// hot, keeping the remaining headroom for required work.
	ct := g.tiers[choice]
	if task.Optional && float64(ct.outstanding) >= shedUtilization*float64(ct.cfg.QueueLimit) {
		return g.reject(task, done, ReasonShed)
	}

	// Backpressure: a full chosen tier falls through to the next-best
	// tiers in estimate order; all-full bounces the submission.
	if ct.outstanding >= ct.cfg.QueueLimit {
		choice = -1
		order := etaOrder(etas)
		for _, i := range order {
			if g.tiers[i].outstanding < g.tiers[i].cfg.QueueLimit {
				choice = i
				break
			}
		}
		if choice < 0 {
			reason := ReasonBackpressure
			if task.Optional {
				reason = ReasonShed
			}
			return g.reject(task, done, reason)
		}
	}

	// A tier whose backend refuses synchronously (a headless cloud mid-
	// failover) hands the task to the next tier in estimate order that
	// has queue room and can still make the deadline.
	err := g.place(choice, task, etas[choice], done)
	if err == nil {
		return nil
	}
	for _, i := range etaOrder(etas) {
		t := g.tiers[i]
		if i == choice || t.outstanding >= t.cfg.QueueLimit || (task.Deadline > 0 && now+etas[i] > task.Deadline) {
			continue
		}
		if err = g.place(i, task, etas[i], done); err == nil {
			return nil
		}
	}
	return err
}

// place submits task to tier i, holding a queue slot until it finishes;
// eta is the tier's estimate for it. A tier that accepts becomes the
// preferred one.
func (g *Governor) place(i int, task Task, eta sim.Time, done func(TaskResult)) error {
	ct := g.tiers[i]
	ct.outstanding++
	ct.outstandingOps += task.Ops
	ct.seq++
	slot := &pendingSlot{ops: task.Ops}
	ct.pending[ct.seq] = slot
	seq := ct.seq
	release := func() {
		s, live := ct.pending[seq]
		if !live {
			return
		}
		delete(ct.pending, seq)
		g.kernel.Cancel(s.timeout)
		ct.outstanding--
		ct.outstandingOps -= s.ops
		if ct.outstandingOps < 0 {
			ct.outstandingOps = 0
		}
	}
	// Lost submissions (outage, shed in flight) may never call back;
	// a guard timeout frees the slot so one black hole cannot wedge the
	// tier's queue forever. Idempotent with the done-path release.
	slot.timeout = g.kernel.After(3*eta+5*time.Second, release)
	err := ct.cfg.Backend.Submit(task, func(res TaskResult) {
		release()
		if done != nil {
			done(res)
		}
	})
	if err != nil {
		// The refused slot was never really occupied.
		release()
		return err
	}
	ct.placed++
	if g.preferred != i {
		if g.preferred >= 0 {
			g.stats.TierSwitches.Inc()
		}
		g.preferred = i
	}
	return nil
}

// reject fails a submission with a structured reason. Rejections count
// as submitted work that failed, so completion rates reflect them.
func (g *Governor) reject(task Task, done func(TaskResult), reason FailReason) error {
	switch reason {
	case ReasonAdmission:
		g.stats.AdmissionRejects.Inc()
	case ReasonShed:
		g.stats.Shed.Inc()
	case ReasonBackpressure:
		g.stats.Backpressured.Inc()
	default:
		// Other FailReasons (deadline, no-quorum, ...) originate in the
		// controller, not the governor; they carry no dedicated counter
		// here and fold into the Submitted/Failed totals below.
	}
	g.stats.Submitted.Inc()
	g.stats.Failed.Inc()
	if done != nil {
		done(TaskResult{ID: task.ID, OK: false, Reason: reason})
	}
	return nil
}

// etaOrder returns tier indexes sorted by estimate, ties by index — an
// insertion sort over ≤ a handful of tiers, allocation-light and
// deterministic.
func etaOrder(etas []sim.Time) []int {
	order := make([]int, len(etas))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if etas[b] < etas[a] || (etas[b] == etas[a] && b < a) {
				order[j-1], order[j] = b, a
			} else {
				break
			}
		}
	}
	return order
}

// Outstanding returns the in-flight submission count for the tier at the
// given configured index (the chaos soak's queue-bound invariant).
func (g *Governor) Outstanding(i int) int {
	if i < 0 || i >= len(g.tiers) {
		return 0
	}
	return g.tiers[i].outstanding
}

// QueueLimit returns the configured bound for the tier at index i.
func (g *Governor) QueueLimit(i int) int {
	if i < 0 || i >= len(g.tiers) {
		return 0
	}
	return g.tiers[i].cfg.QueueLimit
}

// Placed returns how many submissions the tier at index i has accepted.
func (g *Governor) Placed(i int) uint64 {
	if i < 0 || i >= len(g.tiers) {
		return 0
	}
	return g.tiers[i].placed
}

// NumTiersConfigured returns the governor's tier count.
func (g *Governor) NumTiersConfigured() int { return len(g.tiers) }

var _ Backend = (*Governor)(nil)
