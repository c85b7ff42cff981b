package radio

import (
	"fmt"
	"math/rand"
	"time"

	"vcloud/internal/sim"
)

// UplinkParams configures the cellular/Internet path a remote cloud
// depends on: fixed base latency, bandwidth-limited transfer time, a loss
// probability, and an availability switch the outage experiment (E1)
// flips off. The paper's Fig. 2 "infrastructure reliance" row is about
// exactly this dependency.
//
// The link is a FIFO shared channel: transfers serialize at
// BandwidthMbps, queue behind the channel's backlog, and tail-drop when
// the queue wait would exceed MaxQueueDelay — which is what lets a
// congestion controller *observe* load (see Sender and gcc.go).
type UplinkParams struct {
	// BaseRTT is the round-trip latency to the cloud when healthy.
	BaseRTT sim.Time
	// BandwidthMbps limits transfer rates.
	BandwidthMbps float64
	// LossProb is the per-message loss probability when healthy.
	LossProb float64
	// JitterFrac adds uniform ±frac jitter to latency.
	JitterFrac float64
	// Contended is ignored: every uplink is the FIFO shared channel. The
	// field stays only because benchmark/wl_parked.go spells it (ROADMAP
	// item 3(ii)).
	Contended bool
	// MaxQueueDelay bounds the FIFO queue: a transfer whose queue wait
	// would exceed it is dropped at the tail instead of buffering without
	// limit. Default 2 s.
	MaxQueueDelay sim.Time
}

// DefaultUplinkParams returns LTE-flavoured defaults.
func DefaultUplinkParams() UplinkParams {
	return UplinkParams{
		BaseRTT:       60 * time.Millisecond,
		BandwidthMbps: 20,
		LossProb:      0.01,
		JitterFrac:    0.2,
	}
}

// Uplink is a point-to-cloud link shared by all vehicles under coverage.
type Uplink struct {
	kernel    *sim.Kernel
	rng       *rand.Rand
	params    UplinkParams
	available bool
	// outages counts up→down transitions. A message records the count at
	// launch; a different count at delivery time means the flight
	// overlapped an outage window — even one that has already healed —
	// and the exchange died with it.
	outages uint64
	// busyUntil is when the FIFO channel finishes its current backlog; a
	// new transfer queues behind it.
	busyUntil sim.Time

	sent, delivered, lost, dropped uint64
}

// NewUplink creates a healthy uplink.
func NewUplink(kernel *sim.Kernel, params UplinkParams) (*Uplink, error) {
	if kernel == nil {
		return nil, fmt.Errorf("radio: kernel must not be nil")
	}
	if params.BaseRTT <= 0 {
		return nil, fmt.Errorf("radio: BaseRTT must be positive, got %v", params.BaseRTT)
	}
	if params.BandwidthMbps <= 0 {
		return nil, fmt.Errorf("radio: BandwidthMbps must be positive, got %v", params.BandwidthMbps)
	}
	if params.LossProb < 0 || params.LossProb >= 1 {
		return nil, fmt.Errorf("radio: LossProb must be in [0,1), got %v", params.LossProb)
	}
	if params.MaxQueueDelay < 0 {
		return nil, fmt.Errorf("radio: MaxQueueDelay must be non-negative, got %v", params.MaxQueueDelay)
	}
	if params.MaxQueueDelay == 0 {
		params.MaxQueueDelay = 2 * time.Second
	}
	return &Uplink{
		kernel:    kernel,
		rng:       kernel.NewStream("uplink"),
		params:    params,
		available: true,
	}, nil
}

// SetAvailable toggles the uplink (network outage / disaster). Each
// up→down transition opens an outage window: messages already in flight
// are dropped at their delivery time even if the link heals first.
func (u *Uplink) SetAvailable(ok bool) {
	if u.available && !ok {
		u.outages++
	}
	u.available = ok
}

// Available reports whether the uplink is up.
func (u *Uplink) Available() bool { return u.available }

// SetLossProb replaces the per-message loss probability, in [0,1) — the
// injection point of faults.UplinkLoss events, which Validate checks.
func (u *Uplink) SetLossProb(p float64) { u.params.LossProb = p }

// Params returns the uplink's current parameters.
func (u *Uplink) Params() UplinkParams { return u.params }

// Counters returns (sent, delivered, lost, dropped). Lost counts
// stochastic channel loss; Dropped counts messages killed by outage
// windows or FIFO tail drops — the split E1/E2 used to conflate.
func (u *Uplink) Counters() (sent, delivered, lost, dropped uint64) {
	return u.sent, u.delivered, u.lost, u.dropped
}

// QueueDelay reports how long a transfer launched now would wait behind
// the FIFO backlog.
func (u *Uplink) QueueDelay() sim.Time {
	if now := u.kernel.Now(); u.busyUntil > now {
		return u.busyUntil - now
	}
	return 0
}

// Sender is one traffic source's handle on a shared uplink: exchanges
// routed through it feed a GCC-style bandwidth estimator with per-message
// arrival-time and loss feedback, so the source can observe congestion
// and adapt (see gcc.go and the vcloud placement governor).
type Sender struct {
	u   *Uplink
	est *BWEstimator
}

// NewSender attaches an estimator-backed sender to the uplink. A zero
// cfg takes defaults, with the rate ceiling defaulting to the channel's
// configured capacity — the estimator can never report more bandwidth
// than the link physically has.
func (u *Uplink) NewSender(cfg BWEConfig) *Sender {
	if cfg.MaxBps == 0 {
		cfg.MaxBps = u.params.BandwidthMbps * 1e6
	}
	return &Sender{u: u, est: NewBWEstimator(cfg)}
}

// RoundTrip schedules fn after a full request/response exchange of the
// given sizes, or drops it (fn never runs) on loss, outage, or a FIFO
// tail drop. It reports whether the exchange was initiated (false =
// uplink down). The exchange's send time, arrival time and size, or its
// loss, feed this sender's estimator. The RNG draw order — loss first,
// jitter second — is load-bearing: changing it moves every digest and
// table an uplink feeds.
func (s *Sender) RoundTrip(reqBytes, respBytes int, fn func()) bool {
	u := s.u
	if !u.available {
		return false
	}
	u.sent++
	now := u.kernel.Now()
	if u.rng.Float64() < u.params.LossProb {
		u.lost++
		s.est.OnLost(now)
		return true
	}
	if reqBytes < 0 {
		reqBytes = 0
	}
	if respBytes < 0 {
		respBytes = 0
	}
	bytes := reqBytes + respBytes
	transfer := float64(bytes*8) / (u.params.BandwidthMbps * 1e6)
	lat := float64(u.params.BaseRTT) + transfer*float64(time.Second)
	if u.params.JitterFrac > 0 {
		lat *= 1 + (u.rng.Float64()*2-1)*u.params.JitterFrac
	}
	wait := u.QueueDelay()
	if wait > u.params.MaxQueueDelay {
		// Tail drop: the bounded queue is full. For the estimator this is
		// indistinguishable from congestion loss — which is exactly the
		// signal its loss-based controller wants.
		u.dropped++
		s.est.OnLost(now)
		return true
	}
	u.busyUntil = now + wait + sim.Time(transfer*float64(time.Second))
	mark := u.outages
	u.kernel.After(wait+sim.Time(lat), func() {
		if !u.available || u.outages != mark {
			// The flight overlapped an outage window (possibly one that
			// already healed): the exchange died with it.
			u.dropped++
			s.est.OnLost(u.kernel.Now())
			return
		}
		u.delivered++
		s.est.OnAck(now, u.kernel.Now(), bytes)
		if fn != nil {
			fn()
		}
	})
	return true
}

// EstimateBps returns the current smoothed bandwidth estimate.
func (s *Sender) EstimateBps() float64 { return s.est.TargetBps() }

// LossRate returns the loss fraction over the estimator's feedback
// window.
func (s *Sender) LossRate() float64 { return s.est.LossRate() }

// QueueDelay reports the uplink's current FIFO backlog wait.
func (s *Sender) QueueDelay() sim.Time { return s.u.QueueDelay() }

// LastFeedback returns when this sender's estimator last heard from the
// channel (zero before any feedback).
func (s *Sender) LastFeedback() sim.Time { return s.est.LastFeedback() }
