// Package authz implements the grid authorization engine: attribute- and
// identity-based policy rules with pluggable combination algorithms,
// and the grid-mapfile. The facade's authorization pipeline evaluates
// it, for GT2 sessions and GT3 containers alike (paper §4.1: "a service
// that evaluates policy rules regarding the decision to allow the
// attempted actions").
package authz

import (
	"fmt"
	"slices"
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

func (r *Request) time() time.Time {
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

// Matches reports whether the rule applies to the request.
func (r Rule) Matches(req Request) bool { return r.matches(&req) }

// matches is Matches by pointer, copying neither rule nor request; the
// cheap matchers run first, as most rules in a scan miss on them.
func (r *Rule) matches(req *Request) bool {
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

// subjectMatches meets Subjects with req.Subject itself (RendersAs): the
// DN is never rendered, and nothing else can stand in for it.
func (r *Rule) subjectMatches(req *Request) bool {
	// A rule with no subject/group/role matchers applies to everyone.
	if len(r.Subjects) == 0 && len(r.Groups) == 0 && len(r.Roles) == 0 {
		return true
	}
	for _, s := range r.Subjects {
		if s == "*" || req.Subject.RendersAs(s) {
			return true
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
	if err := checkEffects("rule", rules); err != nil {
		return err
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

// checkEffects refuses a batch with any rule (called what) whose effect
// is neither EffectPermit nor EffectDeny.
func checkEffects(what string, rules []Rule) error {
	for _, r := range rules {
		if !r.Effect.Valid() {
			return fmt.Errorf("authz: %s %q has invalid effect %d (want EffectPermit or EffectDeny)", what, r.ID, r.Effect)
		}
	}
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
	if err := checkEffects("rule", rules); err != nil {
		return err
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
	hasID := func(r Rule) bool { return r.ID == id }
	if !slices.ContainsFunc(p.rules, hasID) {
		return false, nil
	}
	if p.store != nil {
		if err := p.store.Journal(Mutation{Kind: MutPolicyRemove, Gen: p.gen + 1, RuleID: id}); err != nil {
			return false, fmt.Errorf("authz: policy removal not journaled: %w", err)
		}
	}
	p.rules = slices.DeleteFunc(p.rules, hasID)
	p.gen++
	return true, nil
}

// applyReplayed applies a journaled policy mutation without journaling,
// restoring the recorded generation (replay path).
func (p *Policy) applyReplayed(m Mutation) error {
	if err := checkEffects("journaled rule", m.Rules); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch m.Kind {
	case MutPolicyAdd:
		p.rules = append(p.rules, m.Rules...)
	case MutPolicyReplace:
		p.rules = append([]Rule(nil), m.Rules...)
	case MutPolicyRemove:
		p.rules = slices.DeleteFunc(p.rules, func(r Rule) bool { return r.ID == m.RuleID })
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
	return EvaluateRules(p.combining, p.rules, req)
}

// EvaluateRules decides rules under c as a Policy holding them would,
// without building one (a CAS assertion's rules), matching in place.
func EvaluateRules(c Combining, rules []Rule, req Request) Decision {
	var sawPermit, sawDeny bool
	for i := range rules {
		r := &rules[i]
		if !r.matches(&req) {
			continue
		}
		// Fail closed: only EffectPermit ever permits. Any other effect —
		// EffectDeny or an unknown value that slipped past Add validation
		// (e.g. a rule built directly or decoded before checking) — denies.
		switch c {
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
