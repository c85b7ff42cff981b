// Package access implements the privacy-preserving access control of the
// paper's §III.C and §V.C:
//
//   - an attribute/context policy language (OR-of-AND clauses over
//     attributes, plus context predicates: location area, speed bound,
//     emergency mode) evaluated without learning the requester's real
//     identity — subjects present attribute keys, not identities;
//   - multi-authority attribute keys with epoch-based revocation
//     (the Luo et al. [24] structure), realized as a symmetric
//     simulation of CP-ABE (see DESIGN.md substitution table);
//   - data–policy packages: encrypted data that travels with its policy
//     and an append-only, hash-chained audit trail, so "any access to
//     the data triggers automatic logging" (§V.C);
//   - emergency escalation: clauses that only activate in emergency
//     context, granting in milliseconds the permissions §III.C says an
//     icy-road scenario needs.
package access

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"vcloud/internal/geo"
)

// Action is an operation on a resource.
type Action string

// Standard actions.
const (
	Read    Action = "read"
	Write   Action = "write"
	Compute Action = "compute"
)

// AttributeID names an attribute, qualified by its issuing authority,
// e.g. "traffic-authority/role:cluster-head".
type AttributeID string

// Clause is a conjunction: the subject must hold every attribute.
type Clause []AttributeID

// Context is the situational state a request is evaluated under (§III.C:
// "enforce the policies under varying contexts").
type Context struct {
	Pos       geo.Point
	Speed     float64
	Emergency bool
	// Now is the virtual time of the request (for audit entries).
	Now int64
}

// ContextRule restricts when a policy clause applies.
type ContextRule struct {
	// Area, when non-nil, requires the requester inside the rectangle.
	Area *geo.Rect
	// MaxSpeed, when positive, requires requester speed below it.
	MaxSpeed float64
	// EmergencyOnly activates the rule only in emergency context.
	EmergencyOnly bool
}

// Satisfied reports whether ctx meets the rule.
func (r ContextRule) Satisfied(ctx Context) bool {
	if r.EmergencyOnly && !ctx.Emergency {
		return false
	}
	if r.Area != nil && !r.Area.Contains(ctx.Pos) {
		return false
	}
	if r.MaxSpeed > 0 && ctx.Speed > r.MaxSpeed {
		return false
	}
	return true
}

// appendSigned appends the rule's encoding inside a package's signed
// bytes. Fixed width, so a relay cannot shift bytes between fields: flags
// (emergency-only, area present), MaxSpeed, the area's corners (zero when
// absent).
func (r ContextRule) appendSigned(b []byte) []byte {
	var flags byte
	var area geo.Rect
	if r.EmergencyOnly {
		flags |= 1
	}
	if r.Area != nil {
		flags |= 2
		area = *r.Area
	}
	b = append(b, flags)
	for _, f := range [...]float64{r.MaxSpeed, area.Min.X, area.Min.Y, area.Max.X, area.Max.Y} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// Rule grants an action when any clause is satisfied under the context
// rule.
type Rule struct {
	Action  Action
	AnyOf   []Clause
	Context ContextRule
}

// Policy is the complete access policy of one resource.
type Policy struct {
	Resource string
	Rules    []Rule
}

// Validate checks structural sanity.
func (p *Policy) Validate() error {
	if p.Resource == "" {
		return fmt.Errorf("access: policy resource must not be empty")
	}
	if len(p.Rules) == 0 {
		return fmt.Errorf("access: policy %q has no rules", p.Resource)
	}
	for i, r := range p.Rules {
		if r.Action == "" {
			return fmt.Errorf("access: policy %q rule %d has no action", p.Resource, i)
		}
		if len(r.AnyOf) == 0 {
			return fmt.Errorf("access: policy %q rule %d has no clauses", p.Resource, i)
		}
		for j, c := range r.AnyOf {
			if len(c) == 0 {
				return fmt.Errorf("access: policy %q rule %d clause %d is empty", p.Resource, i, j)
			}
		}
	}
	return nil
}

// Decision is the outcome of an evaluation.
type Decision struct {
	Allowed bool
	// MatchedClause is the satisfied clause (nil when denied).
	MatchedClause Clause
	// ClausesChecked counts the clauses tried (examples/contentshare
	// prints it) and AttrsChecked the attribute lookups (only the tests
	// read it). No experiment charges time for either.
	ClausesChecked int
	AttrsChecked   int
}

// AttrSet is a subject's attribute holding, by ID. Values carry the key
// epoch the subject holds (see Authority); pure policy evaluation only
// uses membership.
type AttrSet map[AttributeID]uint64

// Evaluate decides whether a subject holding attrs may perform action on
// the policy's resource under ctx. Evaluation is identity-free: only
// attribute possession matters.
func Evaluate(p *Policy, attrs AttrSet, action Action, ctx Context) Decision {
	var d Decision
	for _, rule := range p.Rules {
		if rule.Action != action {
			continue
		}
		if !rule.Context.Satisfied(ctx) {
			continue
		}
		for _, clause := range rule.AnyOf {
			d.ClausesChecked++
			ok := true
			for _, attr := range clause {
				d.AttrsChecked++
				if _, has := attrs[attr]; !has {
					ok = false
					break
				}
			}
			if ok {
				d.Allowed = true
				d.MatchedClause = clause
				return d
			}
		}
	}
	return d
}

// clauseKey canonicalizes a clause for key wrapping (sorted attribute
// ids joined).
func clauseKey(c Clause) string {
	ids := make([]string, len(c))
	for i, a := range c {
		ids[i] = string(a)
	}
	sort.Strings(ids)
	out := ""
	for i, s := range ids {
		if i > 0 {
			out += "&"
		}
		out += s
	}
	return out
}
