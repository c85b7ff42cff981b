// GCC-style bandwidth estimation for the shared uplink (ISSUE 8
// tentpole). The estimator is the delay-gradient design of Google
// Congestion Control, restated over the simulator's virtual clock:
//
//   - arrival-time grouping: messages sent within a burst interval form
//     one group, and consecutive groups yield an inter-group delay
//     variation d(i) = (arrival_i − arrival_{i−1}) − (send_i − send_{i−1})
//     — positive when the bottleneck queue grew between the groups,
//     negative when it drained;
//   - a trendline estimator: the accumulated delay variation is smoothed
//     exponentially and regressed against arrival time over a sliding
//     window; the regression slope, scaled by the sample count and a
//     gain, is the congestion trend;
//   - an overuse detector with an adaptive threshold: the trend is
//     compared against a threshold that itself adapts (fast up, slow
//     down, clamped) so a single competing flow cannot starve the
//     estimator into permanent overuse;
//   - an AIMD delay-based rate controller: overuse multiplies the rate
//     down against the measured received rate (×β), underuse holds, and
//     normal operation increases — multiplicatively far from the last
//     decrease, additively near it;
//   - a loss-based controller: heavy loss multiplies the rate down,
//     negligible loss lets it grow;
//   - the published estimate is min(delay-based, loss-based), smoothed
//     with an EWMA and clamped to the configured channel bounds.
//
// Everything is pure arithmetic over sim.Time inputs: no wall clock, no
// global randomness, so two runs with equal seeds produce bit-identical
// estimate traces (a property the tests assert).
package radio

import (
	"math"
	"time"

	"vcloud/internal/sim"
)

// BWEConfig bounds a bandwidth estimator. Zero values take defaults.
type BWEConfig struct {
	// MinBps / MaxBps clamp every rate the estimator publishes. MaxBps
	// should be the channel's physical capacity; Sender wiring defaults
	// it there. Defaults: 10 kbps / 100 Mbps.
	MinBps float64
	MaxBps float64
}

func (c BWEConfig) withDefaults() BWEConfig {
	if c.MinBps <= 0 {
		c.MinBps = 10e3
	}
	if c.MaxBps <= 0 {
		c.MaxBps = 100e6
	}
	return c
}

// Estimator tuning.
const (
	// burstInterval coalesces messages sent within it into one arrival
	// group.
	burstInterval = 5 * time.Millisecond
	trendWindow   = 20  // trendline regression window in delay samples
	trendGain     = 4.0 // scales the regression slope into the overuse comparison
	// decreaseBeta is the multiplicative decrease applied to the measured
	// received rate on overuse.
	decreaseBeta   = 0.85
	smoothAlpha    = 0.3 // EWMA weight of the newest target in the published estimate
	feedbackWindow = 20  // loss-rate window in messages
	// lossInterval rate-limits loss-controller updates so per-message
	// multiplicative steps cannot compound unboundedly.
	lossInterval = 500 * time.Millisecond
)

// Detector states.
const (
	stateNormal = iota
	stateOveruse
	stateUnderuse
)

// Rate-controller states.
const (
	rcIncrease = iota
	rcHold
	rcDecrease
)

// Adaptive-threshold constants, in the units of the modified trend
// (milliseconds): initial value, up/down adaptation gains, clamp range,
// and how long an over-threshold trend must persist before overuse is
// signalled.
const (
	thresholdInitMs = 12.5
	thresholdKUp    = 0.0087
	thresholdKDown  = 0.039
	thresholdMinMs  = 6.0
	thresholdMaxMs  = 600.0
	overuseTimeMs   = 10.0
	maxDeltas       = 60
)

// rateSample is one acknowledged message in the received-rate window.
type rateSample struct {
	at    sim.Time
	bytes int
}

// trendSample is one point of the trendline regression: arrival time
// (ms, relative to the first sample) and smoothed accumulated delay (ms).
type trendSample struct {
	tMs     float64
	delayMs float64
}

// BWEstimator is one sender's congestion view of a shared channel. It is
// driven entirely by OnSent/OnAck/OnLost callbacks from the uplink and
// publishes a smoothed, clamped bandwidth estimate via TargetBps.
type BWEstimator struct {
	cfg BWEConfig

	// Arrival grouping. A group is keyed by its first send time; it
	// closes when a message sent more than burstInterval later arrives.
	haveGroup                     bool
	groupFirstSend, groupLastSend sim.Time
	groupLastArrival              sim.Time
	havePrev                      bool
	prevLastSend, prevLastArrival sim.Time

	// Trendline state.
	accumDelayMs  float64
	smoothDelayMs float64
	firstArrival  sim.Time
	window        []trendSample
	numDeltas     int
	trend         float64 // latest modified trend (ms)
	prevTrend     float64

	// Adaptive-threshold overuse detector.
	thresholdMs  float64
	state        int
	overuseStart sim.Time
	lastDetect   sim.Time

	// Received-rate measurement over the last second.
	rateWin []rateSample

	// Loss window: a ring of recent message outcomes (true = delivered).
	outcomes   []bool
	outcomeIdx int
	outcomeN   int

	// Controllers.
	rcState      int
	delayBps     float64
	lossBps      float64
	lastDecrease float64
	lastRateAt   sim.Time
	lastLossAt   sim.Time
	haveRateTime bool
	estimate     float64
	// lastFeedback is when the estimator last heard anything (ack or
	// loss). A consumer can use its age to decay trust in the estimate:
	// a source that stops sending stops learning, and its view of the
	// channel goes stale rather than staying authoritative forever.
	lastFeedback sim.Time
}

// NewBWEstimator builds an estimator with the given config.
func NewBWEstimator(cfg BWEConfig) *BWEstimator {
	cfg = cfg.withDefaults()
	start := cfg.MaxBps / 2 // seeds the controllers before any feedback
	return &BWEstimator{
		cfg:         cfg,
		thresholdMs: thresholdInitMs,
		delayBps:    start,
		lossBps:     start,
		estimate:    start,
		outcomes:    make([]bool, feedbackWindow),
	}
}

// OnLost records a lost or dropped message: it enters the loss window
// and may trigger a loss-controller update.
func (e *BWEstimator) OnLost(now sim.Time) {
	e.lastFeedback = now
	e.pushOutcome(false)
	e.updateLoss(now)
	e.publish()
}

// OnAck records a delivered message: received-rate and loss-window
// bookkeeping, arrival grouping, and — when a group closes — a trendline
// update and a detector/rate-controller step.
func (e *BWEstimator) OnAck(sendTime, arrival sim.Time, bytes int) {
	e.lastFeedback = arrival
	e.pushOutcome(true)
	e.pushRate(arrival, bytes)
	e.updateLoss(arrival)

	if !e.haveGroup {
		e.startGroup(sendTime, arrival)
		e.publish()
		return
	}
	if sendTime-e.groupFirstSend <= burstInterval {
		// Same burst: extend the current group. Out-of-order arrivals
		// keep the latest times.
		if sendTime > e.groupLastSend {
			e.groupLastSend = sendTime
		}
		if arrival > e.groupLastArrival {
			e.groupLastArrival = arrival
		}
		e.publish()
		return
	}
	// The burst ended: compare the closing group against the previous
	// one, then start a new group with this message.
	if e.havePrev {
		sendDelta := (e.groupLastSend - e.prevLastSend).Seconds() * 1e3
		arrivalDelta := (e.groupLastArrival - e.prevLastArrival).Seconds() * 1e3
		e.onDelayDelta(arrivalDelta-sendDelta, e.groupLastArrival)
	}
	e.havePrev = true
	e.prevLastSend = e.groupLastSend
	e.prevLastArrival = e.groupLastArrival
	e.startGroup(sendTime, arrival)
	e.publish()
}

func (e *BWEstimator) startGroup(sendTime, arrival sim.Time) {
	e.haveGroup = true
	e.groupFirstSend = sendTime
	e.groupLastSend = sendTime
	e.groupLastArrival = arrival
}

// onDelayDelta feeds one inter-group delay variation (ms) into the
// trendline, then runs the detector and the delay-based rate controller.
func (e *BWEstimator) onDelayDelta(deltaMs float64, arrival sim.Time) {
	if e.numDeltas == 0 {
		e.firstArrival = arrival
	}
	e.numDeltas++
	e.accumDelayMs += deltaMs
	e.smoothDelayMs = 0.9*e.smoothDelayMs + 0.1*e.accumDelayMs
	e.window = append(e.window, trendSample{
		tMs:     (arrival - e.firstArrival).Seconds() * 1e3,
		delayMs: e.smoothDelayMs,
	})
	if len(e.window) > trendWindow {
		e.window = e.window[1:]
	}
	slope, ok := e.slope()
	if !ok {
		return
	}
	n := e.numDeltas
	if n > maxDeltas {
		n = maxDeltas
	}
	e.prevTrend = e.trend
	e.trend = slope * float64(n) * trendGain
	e.detect(arrival)
	e.stepDelayController(arrival)
}

// slope is the least-squares slope of the trendline window (delay-ms per
// arrival-ms). Needs at least two samples with distinct times.
func (e *BWEstimator) slope() (float64, bool) {
	if len(e.window) < 2 {
		return 0, false
	}
	var sumT, sumD float64
	for _, s := range e.window {
		sumT += s.tMs
		sumD += s.delayMs
	}
	n := float64(len(e.window))
	meanT, meanD := sumT/n, sumD/n
	var num, den float64
	for _, s := range e.window {
		num += (s.tMs - meanT) * (s.delayMs - meanD)
		den += (s.tMs - meanT) * (s.tMs - meanT)
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// detect classifies the modified trend against the adaptive threshold
// and adapts the threshold toward |trend| — fast when above (so one
// aggressive competing flow cannot capture the detector), slow when
// below, clamped to a sane range.
func (e *BWEstimator) detect(now sim.Time) {
	t := e.trend
	switch {
	case t > e.thresholdMs:
		if e.state != stateOveruse && e.overuseStart == 0 {
			e.overuseStart = now
		}
		// Overuse must be sustained and not already receding.
		sustainedMs := (now - e.overuseStart).Seconds() * 1e3
		if e.overuseStart > 0 && sustainedMs >= overuseTimeMs && t >= e.prevTrend {
			e.state = stateOveruse
		}
	case t < -e.thresholdMs:
		e.state = stateUnderuse
		e.overuseStart = 0
	default:
		e.state = stateNormal
		e.overuseStart = 0
	}
	// Threshold adaptation: γ += dt·k·(|trend| − γ).
	if e.lastDetect > 0 {
		dtMs := (now - e.lastDetect).Seconds() * 1e3
		if dtMs > 100 {
			dtMs = 100
		}
		k := thresholdKDown
		if math.Abs(t) > e.thresholdMs {
			k = thresholdKUp
		}
		e.thresholdMs += dtMs * k * (math.Abs(t) - e.thresholdMs)
		if e.thresholdMs < thresholdMinMs {
			e.thresholdMs = thresholdMinMs
		}
		if e.thresholdMs > thresholdMaxMs {
			e.thresholdMs = thresholdMaxMs
		}
	}
	e.lastDetect = now
}

// stepDelayController runs one AIMD step of the delay-based controller.
func (e *BWEstimator) stepDelayController(now sim.Time) {
	received := e.receivedBps(now)
	switch e.state {
	case stateOveruse:
		if e.rcState != rcDecrease {
			e.rcState = rcDecrease
			if received > 0 {
				e.delayBps = decreaseBeta * received
			} else {
				e.delayBps *= decreaseBeta
			}
			e.lastDecrease = e.delayBps
		}
	case stateUnderuse:
		// The queues are draining: hold until they empty rather than
		// re-filling them immediately.
		e.rcState = rcHold
	default:
		dt := 0.0
		if e.haveRateTime {
			dt = (now - e.lastRateAt).Seconds()
			if dt > 1 {
				dt = 1
			}
		}
		e.rcState = rcIncrease
		if e.lastDecrease > 0 && e.delayBps > 0.9*e.lastDecrease {
			// Near the rate that last congested the channel: probe
			// additively.
			e.delayBps += e.cfg.MaxBps * 0.02 * dt
		} else {
			e.delayBps *= math.Pow(1.08, dt)
		}
	}
	e.haveRateTime = true
	e.lastRateAt = now
	e.clampDelay()
}

func (e *BWEstimator) clampDelay() {
	if e.delayBps > e.cfg.MaxBps {
		e.delayBps = e.cfg.MaxBps
	}
	if e.delayBps < e.cfg.MinBps {
		e.delayBps = e.cfg.MinBps
	}
}

// updateLoss runs the loss-based controller at most once per
// LossInterval: heavy loss multiplies down, negligible loss grows.
func (e *BWEstimator) updateLoss(now sim.Time) {
	if e.outcomeN < feedbackWindow {
		return // window not yet primed
	}
	if e.lastLossAt > 0 && now-e.lastLossAt < lossInterval {
		return
	}
	e.lastLossAt = now
	loss := e.LossRate()
	switch {
	case loss > 0.10:
		e.lossBps *= 1 - 0.5*loss
	case loss < 0.02:
		e.lossBps *= 1.05
	}
	if e.lossBps > e.cfg.MaxBps {
		e.lossBps = e.cfg.MaxBps
	}
	if e.lossBps < e.cfg.MinBps {
		e.lossBps = e.cfg.MinBps
	}
}

// publish folds the controllers into the smoothed published estimate:
// EWMA over min(delay-based, loss-based), clamped.
func (e *BWEstimator) publish() {
	target := e.delayBps
	if e.lossBps < target {
		target = e.lossBps
	}
	e.estimate += smoothAlpha * (target - e.estimate)
	if e.estimate > e.cfg.MaxBps {
		e.estimate = e.cfg.MaxBps
	}
	if e.estimate < e.cfg.MinBps {
		e.estimate = e.cfg.MinBps
	}
}

func (e *BWEstimator) pushOutcome(ok bool) {
	e.outcomes[e.outcomeIdx] = ok
	e.outcomeIdx = (e.outcomeIdx + 1) % len(e.outcomes)
	if e.outcomeN < len(e.outcomes) {
		e.outcomeN++
	}
}

func (e *BWEstimator) pushRate(at sim.Time, bytes int) {
	e.rateWin = append(e.rateWin, rateSample{at: at, bytes: bytes})
	e.trimRate(at)
}

func (e *BWEstimator) trimRate(now sim.Time) {
	cut := 0
	for cut < len(e.rateWin) && now-e.rateWin[cut].at > time.Second {
		cut++
	}
	e.rateWin = e.rateWin[cut:]
}

// receivedBps measures the acknowledged throughput over the last second.
func (e *BWEstimator) receivedBps(now sim.Time) float64 {
	e.trimRate(now)
	if len(e.rateWin) == 0 {
		return 0
	}
	var bits float64
	for _, s := range e.rateWin {
		bits += float64(s.bytes * 8)
	}
	return bits // window is 1 s, so bits == bits/sec
}

// TargetBps returns the published (EWMA-smoothed, clamped) estimate.
func (e *BWEstimator) TargetBps() float64 { return e.estimate }

// LastFeedback returns when the estimator last received any feedback
// (zero before the first ack or loss).
func (e *BWEstimator) LastFeedback() sim.Time { return e.lastFeedback }

// LossRate returns the loss fraction over the feedback window (zero
// until any outcome is recorded).
func (e *BWEstimator) LossRate() float64 {
	if e.outcomeN == 0 {
		return 0
	}
	fails := 0
	for i := 0; i < e.outcomeN; i++ {
		if !e.outcomes[i] {
			fails++
		}
	}
	return float64(fails) / float64(e.outcomeN)
}
