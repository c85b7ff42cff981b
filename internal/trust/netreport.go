package trust

import (
	"fmt"
	"time"

	"vcloud/internal/cryptoprim"
	"vcloud/internal/geo"
	"vcloud/internal/sim"
	"vcloud/internal/vnet"
)

// reportKind is the wire message kind for event reports.
const reportKind = "trust.report"

// reportTTL bounds dissemination of reports (2-hop neighborhood: the
// vehicles that could plausibly act on a local hazard).
const reportTTL = 3

// WireReport is the on-air report payload.
type WireReport struct {
	EventType   string
	EventPos    geo.Point
	EventAt     sim.Time
	Claim       bool
	Token       Token
	ReporterPos geo.Point
	// Sig, when reports are authenticated, is a group signature over the
	// report digest: §IV.D's point that authentication "discourages most
	// vehicles from misbehaving" before content validation handles the
	// rest. Unsigned deployments leave it zero.
	Sig cryptoprim.GroupSig
}

// reportDigest canonicalizes the signed fields.
func reportDigest(w *WireReport) [32]byte {
	return cryptoprim.Digest(
		[]byte(w.EventType),
		[]byte(fmt.Sprintf("%v|%v|%d|%v", w.EventPos, w.EventAt, boolByte(w.Claim), w.ReporterPos)),
		w.Token[:],
	)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// WireReportSize approximates the on-air bytes of a signed report.
const WireReportSize = 200

// Reporter broadcasts event observations into the neighborhood.
type Reporter struct {
	node  *vnet.Node
	cred  *cryptoprim.GroupCred
	nonce uint64
}

// NewReporter attaches a reporter to a node. Reporters are send-only; a
// node can host both a Reporter and an Evaluator.
func NewReporter(node *vnet.Node) (*Reporter, error) {
	if node == nil {
		return nil, fmt.Errorf("trust: node must not be nil")
	}
	return &Reporter{node: node}, nil
}

// SetCredential makes the reporter sign every report with the group
// credential (anonymous toward peers, traceable by the manager).
func (r *Reporter) SetCredential(cred *cryptoprim.GroupCred) { r.cred = cred }

// Report disseminates an observation (claim about an event) under the
// given anonymous token.
func (r *Reporter) Report(eventType string, eventPos geo.Point, eventAt sim.Time, claim bool, token Token) {
	wr := WireReport{
		EventType:   eventType,
		EventPos:    eventPos,
		EventAt:     eventAt,
		Claim:       claim,
		Token:       token,
		ReporterPos: r.node.Position(),
	}
	if r.cred != nil {
		r.nonce++
		d := reportDigest(&wr)
		wr.Sig = r.cred.Sign(d[:], r.nonce)
	}
	msg := r.node.NewMessage(vnet.BroadcastAddr, reportKind, WireReportSize, reportTTL, wr)
	r.node.Seen(msg)
	r.node.BroadcastLocal(msg)
}

// Decision is delivered by an Evaluator when a group's deadline expires.
type Decision struct {
	Group *Group
	// Score is the validator's P(event real).
	Score float64
	// Reports is how many reports arrived before the deadline.
	Reports int
	// EventReal and Unknown derive from Decide with the configured
	// margin.
	EventReal bool
	Unknown   bool
	// Elapsed is the time from first report to decision.
	Elapsed sim.Time
}

// Event-classifier extent and the indifference band around 0.5.
const (
	classifyRadius = 150.0 // meters
	classifyWindow = 30 * time.Second
	decideMargin   = 0.05
)

// EvaluatorConfig tunes an evaluator.
type EvaluatorConfig struct {
	// Validator scores report groups. Required.
	Validator Validator
	// Deadline is the §III.D stringent time constraint: the decision is
	// made this long after a group's first report, with whatever
	// evidence has arrived. Default 2 s.
	Deadline sim.Time
	// GroupKey, when set, makes the evaluator require a valid group
	// signature on every report and silently drop the rest — the
	// authentication gate that blocks Sybil identities without
	// credentials (§IV.D). Dropped reports are counted in Rejected.
	GroupKey []byte
}

// Evaluator collects reports from the air, classifies them into events
// and emits deadline-bounded trust decisions — the on-board
// "trustworthiness evaluation system" of §V.D.
type Evaluator struct {
	node    *vnet.Node
	cfg     EvaluatorConfig
	cls     *Classifier
	pending map[*Group]bool
	decided map[*Group]bool
	onDec   []func(Decision)
	stopped bool
	// Rejected counts reports dropped for missing/invalid signatures.
	Rejected uint64
}

// NewEvaluator attaches an evaluator to a node.
func NewEvaluator(node *vnet.Node, cfg EvaluatorConfig) (*Evaluator, error) {
	if node == nil {
		return nil, fmt.Errorf("trust: node must not be nil")
	}
	if cfg.Validator == nil {
		return nil, fmt.Errorf("trust: evaluator requires a validator")
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2e9
	}
	cls, err := NewClassifier(classifyRadius, classifyWindow)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		node:    node,
		cfg:     cfg,
		cls:     cls,
		pending: make(map[*Group]bool),
		decided: make(map[*Group]bool),
	}
	node.Handle(reportKind, e.onReport)
	return e, nil
}

// Stop detaches the evaluator.
func (e *Evaluator) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.node.Handle(reportKind, nil)
}

// OnDecision registers a decision observer.
func (e *Evaluator) OnDecision(fn func(Decision)) {
	if fn != nil {
		e.onDec = append(e.onDec, fn)
	}
}

// Classifier exposes the underlying event classifier (read-only use).
func (e *Evaluator) Classifier() *Classifier { return e.cls }

func (e *Evaluator) onReport(msg vnet.Message, relayer vnet.Addr) {
	if e.stopped {
		return
	}
	wr, ok := msg.Payload.(WireReport)
	if !ok {
		return
	}
	if e.node.Seen(msg) {
		return
	}
	if len(e.cfg.GroupKey) > 0 {
		d := reportDigest(&wr)
		if !cryptoprim.VerifyGroupSig(e.cfg.GroupKey, d[:], wr.Sig) {
			e.Rejected++
			return
		}
	}
	now := e.node.Kernel().Now()
	rep := Report{
		Reporter:    wr.Token,
		Claim:       wr.Claim,
		ReporterPos: wr.ReporterPos,
		// The delivery path fingerprint: origin ⊕ relayer. Reports
		// amplified through one relay share it; §V.D's routing-path
		// similarity signal.
		PathID: uint64(msg.Origin)<<20 ^ uint64(relayer),
		At:     now,
	}
	g := e.cls.Assign(wr.EventType, wr.EventPos, wr.EventAt, rep)
	if !e.pending[g] && !e.decided[g] {
		e.pending[g] = true
		first := now
		e.node.Kernel().After(e.cfg.Deadline, func() { e.decide(g, first) })
	}
	// Relay (TTL permitting) so reports reach vehicles beyond one hop.
	fwd := msg
	fwd.TTL--
	if fwd.TTL > 0 {
		e.node.BroadcastLocal(fwd)
	}
}

func (e *Evaluator) decide(g *Group, first sim.Time) {
	if e.stopped {
		return
	}
	delete(e.pending, g)
	e.decided[g] = true
	now := e.node.Kernel().Now()
	score, n := DeadlineEvaluate(e.cfg.Validator, g, now)
	real, unknown := Decide(score, decideMargin)
	d := Decision{
		Group:     g,
		Score:     score,
		Reports:   n,
		EventReal: real,
		Unknown:   unknown,
		Elapsed:   now - first,
	}
	for _, fn := range e.onDec {
		fn(d)
	}
}
