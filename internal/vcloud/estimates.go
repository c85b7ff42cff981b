package vcloud

import (
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// This file is the estimate plane of congestion-aware offload (ISSUE 8):
// members that hold a radio sender (and thus a GCC-style bandwidth
// estimator, internal/radio/gcc.go) periodically report each tier's live
// channel conditions to the controller, which keeps a per-tier table the
// placement governor (governor.go) reads when routing work between the
// vehicle cluster, the RSU edge and the conventional cloud. Reports ride
// epoch-fenced messages, and the table is checkpointed, so a promoted
// standby inherits the congestion view instead of starting blind.

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

// TierEstimate is the controller's live congestion view of one tier.
type TierEstimate struct {
	// Bps is the estimated usable bandwidth toward the tier.
	Bps float64
	// Loss is the recent loss fraction on the tier's channel.
	Loss float64
	// QueueDelay is the channel's current FIFO backlog wait.
	QueueDelay sim.Time
	// Seq orders reports from one feed; a lower-seq report arriving late
	// never overwrites a fresher one.
	Seq uint64
	// Updated is when the controller accepted the report.
	Updated sim.Time
}

// kindEstimate carries a member's tier-condition report.
const kindEstimate = "vc.est"

// estimateMsg is one tier-condition report. Epoch fences it: a report
// stamped below the controller's epoch is stale — it was measured for a
// deposed leader's placement decisions — and is rejected.
type estimateMsg struct {
	Tier       Tier
	Bps        float64
	Loss       float64
	QueueDelay sim.Time
	Seq        uint64
	Epoch      Epoch
}

// EstimateSource is a live channel-condition feed. *radio.Sender
// satisfies it; tests use synthetic sources.
type EstimateSource interface {
	EstimateBps() float64
	LossRate() float64
	QueueDelay() sim.Time
}

// EstimateFeed binds a source to the tier it measures.
type EstimateFeed struct {
	Tier   Tier
	Source EstimateSource
}

// AddEstimateFeed attaches a channel-condition feed to a running member
// — the wiring path for deployments whose members were created before
// the radio senders existed.
func (m *Member) AddEstimateFeed(f EstimateFeed) {
	m.cfg.EstimateFeeds = append(m.cfg.EstimateFeeds, f)
}

// reportEstimates sends one report per configured feed to the currently
// followed controller, stamped with the member's highest witnessed epoch
// so a fenced controller can reject measurements aimed at a deposed
// leader. Rides the member tick (checkPeriod cadence).
func (m *Member) reportEstimates() {
	if m.controller < 0 || len(m.cfg.EstimateFeeds) == 0 {
		return
	}
	for i := range m.cfg.EstimateFeeds {
		f := &m.cfg.EstimateFeeds[i]
		if f.Source == nil || f.Tier < 0 || f.Tier >= NumTiers {
			continue
		}
		m.estimateSeq++
		msg := m.node.NewMessage(m.controller, kindEstimate, 64, 1, estimateMsg{
			Tier:       f.Tier,
			Bps:        f.Source.EstimateBps(),
			Loss:       f.Source.LossRate(),
			QueueDelay: f.Source.QueueDelay(),
			Seq:        m.estimateSeq,
			Epoch:      m.highestEpoch,
		})
		m.node.SendTo(m.controller, msg)
	}
}

// onEstimate folds an accepted report into the controller's tier table.
func (c *Controller) onEstimate(msg vnet.Message, _ vnet.Addr) {
	if c.stopped {
		return
	}
	em, ok := msg.Payload.(estimateMsg)
	if !ok || em.Tier < 0 || em.Tier >= NumTiers {
		return
	}
	if c.cfg.Fencing && !em.Epoch.Zero() && c.epoch.Supersedes(em.Epoch) {
		// Measured for a deposed leader: reject rather than let a stale
		// congestion view steer placement.
		c.stats.EstimateStale.Inc()
		return
	}
	cur := &c.estimates[em.Tier]
	if em.Seq <= cur.Seq {
		return // late-arriving older report
	}
	cur.Bps = em.Bps
	cur.Loss = em.Loss
	cur.QueueDelay = em.QueueDelay
	cur.Seq = em.Seq
	cur.Updated = c.node.Kernel().Now()
	c.stats.EstimateReports.Inc()
}

// TierEstimateFor returns the live estimate for a tier; ok is false while
// no report has been accepted (the governor then falls back to nominal
// figures).
func (c *Controller) TierEstimateFor(t Tier) (TierEstimate, bool) {
	if t < 0 || t >= NumTiers {
		return TierEstimate{}, false
	}
	e := c.estimates[t]
	return e, e.Seq > 0
}

// SetTierEstimate seeds or overrides a tier estimate directly — the path
// for co-located sources (a sender owned by the controller's own node)
// that need no network round-trip, and for tests.
func (c *Controller) SetTierEstimate(t Tier, e TierEstimate) {
	if t < 0 || t >= NumTiers {
		return
	}
	if e.Seq <= c.estimates[t].Seq {
		e.Seq = c.estimates[t].Seq + 1
	}
	e.Updated = c.node.Kernel().Now()
	c.estimates[t] = e
}
