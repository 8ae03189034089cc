// Package authz implements the grid authorization engine: attribute- and
// identity-based policy rules with pluggable combination algorithms,
// and the grid-mapfile. It is consumed
// directly by resources (GT2 style) and wrapped as an OGSA authorization
// service (GT3 style, paper §4.1: "a service that evaluates policy rules
// regarding the decision to allow the attempted actions").
package authz

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/gridcert"
)

// Decision is the outcome of a policy evaluation.
type Decision uint8

const (
	// NotApplicable means no rule matched the request.
	NotApplicable Decision = iota
	// Permit allows the request.
	Permit
	// Deny refuses the request.
	Deny
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Permit:
		return "permit"
	case Deny:
		return "deny"
	default:
		return "not-applicable"
	}
}

// Request is an access-control question: may subject perform action on
// resource?
type Request struct {
	// Subject is the requester's grid identity (end-entity DN).
	Subject gridcert.Name
	// Groups and Roles are attributes established out of band (VO
	// membership, VO role assignment).
	Groups []string
	Roles  []string
	// Resource names the target, e.g. "gridftp:/data/climate/run1".
	Resource string
	// Action names the operation, e.g. "read", "write", "job-submit".
	Action string
	// Time of the request; zero means now.
	Time time.Time
}

func (r Request) time() time.Time {
	if r.Time.IsZero() {
		return time.Now()
	}
	return r.Time
}

// Effect is a rule's disposition.
type Effect uint8

const (
	// EffectPermit rules grant access.
	EffectPermit Effect = 1
	// EffectDeny rules refuse access.
	EffectDeny Effect = 2
)

// Valid reports whether e is a known effect. The zero value is
// deliberately invalid: a rule whose author forgot the effect must
// never silently permit.
func (e Effect) Valid() bool { return e == EffectPermit || e == EffectDeny }

// Rule is one policy statement. Empty matcher fields match anything.
type Rule struct {
	// ID labels the rule for auditing.
	ID string
	// Effect is Permit or Deny.
	Effect Effect
	// Subjects matches requester DNs ("*" = any; otherwise exact string).
	Subjects []string
	// Groups matches if the requester carries any listed group.
	Groups []string
	// Roles matches if the requester carries any listed role.
	Roles []string
	// Resources matches the target: exact, "*", or prefix pattern
	// "prefix*" (trailing star).
	Resources []string
	// Actions matches operations: exact or "*".
	Actions []string
	// NotBefore/NotAfter bound rule applicability in time (zero = open).
	NotBefore time.Time
	NotAfter  time.Time
}

// Matches reports whether the rule applies to the request. The cheap
// string matchers run first: in a scan most rules miss on resource or
// action, and only a rule that lists Subjects needs the DN rendered.
func (r Rule) Matches(req Request) bool {
	if !matchAny(r.Resources, req.Resource, matchResource) || !matchAny(r.Actions, req.Action, matchExactOrStar) {
		return false
	}
	t := req.time()
	if !r.NotBefore.IsZero() && t.Before(r.NotBefore) {
		return false
	}
	if !r.NotAfter.IsZero() && t.After(r.NotAfter) {
		return false
	}
	return r.subjectMatches(req)
}

func (r Rule) subjectMatches(req Request) bool {
	// A rule with no subject/group/role matchers applies to everyone.
	if len(r.Subjects) == 0 && len(r.Groups) == 0 && len(r.Roles) == 0 {
		return true
	}
	if len(r.Subjects) > 0 {
		subj := req.Subject.String()
		for _, s := range r.Subjects {
			if s == "*" || s == subj {
				return true
			}
		}
	}
	for _, g := range r.Groups {
		for _, have := range req.Groups {
			if g == have {
				return true
			}
		}
	}
	for _, role := range r.Roles {
		for _, have := range req.Roles {
			if role == have {
				return true
			}
		}
	}
	return false
}

func matchAny(patterns []string, value string, match func(pattern, value string) bool) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if match(p, value) {
			return true
		}
	}
	return false
}

func matchExactOrStar(pattern, value string) bool {
	return pattern == "*" || pattern == value
}

func matchResource(pattern, value string) bool {
	if pattern == "*" || pattern == value {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(value, pattern[:len(pattern)-1])
	}
	return false
}

// Combining selects how multiple matching rules resolve.
type Combining uint8

const (
	// DenyOverrides: any matching deny wins; else any permit permits.
	DenyOverrides Combining = iota
	// PermitOverrides: any matching permit wins; else any deny denies.
	PermitOverrides
	// FirstApplicable: the first matching rule (in order) decides.
	FirstApplicable
)

// Policy is an ordered rule set with a combining algorithm.
type Policy struct {
	mu        sync.RWMutex
	rules     []Rule
	combining Combining
	gen       uint64
	store     Store // nil = in-memory (the zero-dependency default)
}

// Bind routes every subsequent mutation through store: each
// Add/AddChecked/Replace/Remove is journaled before it is applied, and
// a journal error refuses the mutation. Bind once, before the policy
// goes live; replay restored state first, then bind.
func (p *Policy) Bind(store Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store = store
}

// NewPolicy creates a policy with the given combining algorithm.
func NewPolicy(c Combining) *Policy { return &Policy{combining: c} }

// Add appends rules to the policy. Rules with an invalid Effect are a
// programmer error and panic; rules decoded from untrusted input go
// through AddChecked instead.
func (p *Policy) Add(rules ...Rule) *Policy {
	if err := p.AddChecked(rules...); err != nil {
		panic(err)
	}
	return p
}

// AddChecked appends rules, rejecting the whole batch if any rule
// carries an effect other than EffectPermit or EffectDeny. This is the
// entry point for rules that crossed a trust boundary (CAS assertions,
// serialized policy): an attacker-chosen effect byte must fail loudly,
// not decay into an implicit permit.
func (p *Policy) AddChecked(rules ...Rule) error {
	for _, r := range rules {
		if !r.Effect.Valid() {
			return fmt.Errorf("authz: rule %q has invalid effect %d (want EffectPermit or EffectDeny)", r.ID, r.Effect)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store != nil {
		if err := p.store.Journal(Mutation{Kind: MutPolicyAdd, Gen: p.gen + 1, Rules: rules}); err != nil {
			return fmt.Errorf("authz: policy mutation not journaled: %w", err)
		}
	}
	p.rules = append(p.rules, rules...)
	p.gen++
	return nil
}

// Replace swaps the entire rule set in one transaction, bumping the
// generation once. The batch is validated first (same rule as
// AddChecked): one bad effect rejects the whole replacement and the
// live rules stay untouched — a reload must never half-apply. An empty
// batch is legal here, unlike for trust roots: "no rules" is a
// meaningful closed-world policy (default-deny engines deny all),
// not a fail-open state.
func (p *Policy) Replace(rules []Rule) error {
	for _, r := range rules {
		if !r.Effect.Valid() {
			return fmt.Errorf("authz: rule %q has invalid effect %d (want EffectPermit or EffectDeny)", r.ID, r.Effect)
		}
	}
	next := append([]Rule(nil), rules...)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.store != nil {
		if err := p.store.Journal(Mutation{Kind: MutPolicyReplace, Gen: p.gen + 1, Rules: next}); err != nil {
			return fmt.Errorf("authz: policy replacement not journaled: %w", err)
		}
	}
	p.rules = next
	p.gen++
	return nil
}

// Combining reports the policy's combining algorithm. It is fixed at
// construction: Replace swaps rules, never the algorithm, so a reloaded
// policy file declaring a different mode is rejected by the reloader
// rather than silently reinterpreting every rule.
func (p *Policy) Combining() Combining {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.combining
}

// Remove deletes every rule with the given ID, reporting whether any
// was removed. Removal bumps the policy generation, so decision caches
// keyed on it re-evaluate on their very next lookup. On a bound policy
// a journal failure panics; durable callers use RemoveChecked.
func (p *Policy) Remove(id string) bool {
	removed, err := p.RemoveChecked(id)
	if err != nil {
		panic(err)
	}
	return removed
}

// RemoveChecked is Remove surfacing the journal outcome: on a bound
// policy a journal error refuses the removal (the rule stays live —
// fail closed means the log never lags the memory image).
func (p *Policy) RemoveChecked(id string) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := false
	for _, r := range p.rules {
		if r.ID == id {
			removed = true
			break
		}
	}
	if !removed {
		return false, nil
	}
	if p.store != nil {
		if err := p.store.Journal(Mutation{Kind: MutPolicyRemove, Gen: p.gen + 1, RuleID: id}); err != nil {
			return false, fmt.Errorf("authz: policy removal not journaled: %w", err)
		}
	}
	kept := p.rules[:0]
	for _, r := range p.rules {
		if r.ID != id {
			kept = append(kept, r)
		}
	}
	p.rules = kept
	p.gen++
	return true, nil
}

// applyReplayed applies a journaled policy mutation without journaling,
// restoring the recorded generation (replay path).
func (p *Policy) applyReplayed(m Mutation) error {
	for _, r := range m.Rules {
		if !r.Effect.Valid() {
			return fmt.Errorf("authz: journaled rule %q has invalid effect %d", r.ID, r.Effect)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch m.Kind {
	case MutPolicyAdd:
		p.rules = append(p.rules, m.Rules...)
	case MutPolicyReplace:
		p.rules = append([]Rule(nil), m.Rules...)
	case MutPolicyRemove:
		kept := p.rules[:0]
		for _, r := range p.rules {
			if r.ID != m.RuleID {
				kept = append(kept, r)
			}
		}
		p.rules = kept
	default:
		return fmt.Errorf("authz: mutation kind %d is not a policy mutation", m.Kind)
	}
	p.gen = m.Gen
	return nil
}

// Generation reports the policy revision: it increments on every
// mutation. Cached decisions are only valid for the generation they
// were computed under.
func (p *Policy) Generation() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.gen
}

// Len returns the number of rules.
func (p *Policy) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.rules)
}

// Rules returns a copy of the rule list.
func (p *Policy) Rules() []Rule {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]Rule(nil), p.rules...)
}

// Evaluate runs the policy over the request.
func (p *Policy) Evaluate(req Request) Decision {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var sawPermit, sawDeny bool
	for _, r := range p.rules {
		if !r.Matches(req) {
			continue
		}
		// Fail closed: only EffectPermit ever permits. Any other effect —
		// EffectDeny or an unknown value that slipped past Add validation
		// (e.g. a rule built directly or decoded before checking) — denies.
		switch p.combining {
		case FirstApplicable:
			if r.Effect == EffectPermit {
				return Permit
			}
			return Deny
		case DenyOverrides:
			if r.Effect != EffectPermit {
				return Deny
			}
			sawPermit = true
		case PermitOverrides:
			if r.Effect == EffectPermit {
				return Permit
			}
			sawDeny = true
		}
	}
	switch {
	case sawPermit:
		return Permit
	case sawDeny:
		return Deny
	default:
		return NotApplicable
	}
}

// Engine is the authorization-service interface (OGSA roadmap §4.1).
type Engine interface {
	Authorize(req Request) (Decision, error)
}

// PolicyEngine adapts a Policy to the Engine interface with a default
// decision for NotApplicable.
type PolicyEngine struct {
	Policy *Policy
	// DefaultDeny treats NotApplicable as Deny (closed world). Resources
	// are closed-world by default in GSI.
	DefaultDeny bool
}

// Authorize implements Engine.
func (e *PolicyEngine) Authorize(req Request) (Decision, error) {
	if e.Policy == nil {
		return Deny, errors.New("authz: engine has no policy")
	}
	d := e.Policy.Evaluate(req)
	if d == NotApplicable && e.DefaultDeny {
		return Deny, nil
	}
	return d, nil
}

// Combine computes the resource-side conjunction of several decisions:
// the request is permitted only if every constituent policy permits it.
// This is the CAS enforcement rule of Figure 2 — "the resource checks
// both local policy and the VO policy" — generalised to N layers.
func Combine(decisions ...Decision) Decision {
	if len(decisions) == 0 {
		return NotApplicable
	}
	sawNA := false
	for _, d := range decisions {
		switch d {
		case Permit:
			// Contributes a permit; the conjunction stays open.
		case NotApplicable:
			sawNA = true
		default:
			// Deny, or a decision value outside the enum: fail closed.
			return Deny
		}
	}
	if sawNA {
		return NotApplicable
	}
	return Permit
}
