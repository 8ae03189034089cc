// Package cas implements the Community Authorization Service (paper §3,
// Figure 2; Pearlman et al. 2002). CAS lets resource providers outsource
// a slice of their policy to a virtual organization: the VO expresses
// policy about its members, members obtain signed policy assertions, and
// resources enforce the *intersection* of the VO assertion with local
// policy — so "a resource remains the ultimate authority over that
// resource, but the VO controls a subset of that enforced policy."
//
// The three-step flow of Figure 2:
//
//  1. the user authenticates to CAS and receives a signed assertion of
//     the VO's policy for that user;
//  2. the user presents the assertion to a VO resource along with the
//     request (embedded in a restricted proxy certificate);
//  3. the resource checks both local policy and the VO policy in the
//     assertion.
package cas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/wire"
)

// PolicyLanguage identifies CAS assertions inside restricted proxies.
const PolicyLanguage = "grid.cas.assertion.v1"

// Assertion is a signed statement of VO policy scoped to one member.
type Assertion struct {
	// VO is the issuing community's identity (the CAS server's DN).
	VO gridcert.Name
	// Subject is the member the assertion speaks about.
	Subject gridcert.Name
	// Groups and Roles are the VO attributes the community vouches for:
	// the subject's group memberships and role assignments at issuance.
	// Resources can reference them in local policy (e.g. a rule matching
	// group "climate-vo") without knowing VO internals.
	Groups []string
	Roles  []string
	// Rules is the slice of VO policy granted to the subject.
	Rules []authz.Rule
	// IssuedAt / ExpiresAt bound the assertion's life.
	IssuedAt  time.Time
	ExpiresAt time.Time

	Signature []byte

	// chain is the validated chain ExtractAssertion found the assertion
	// in, if any: Verify checks the signature through the signature memo
	// of the trust store that validated it.
	chain *gridcert.ChainInfo
}

const maxAssertionRules = 4096

// The rule and string-list codec is authz.WireEncodeRule and friends —
// shared with journaled mutations and durable snapshots, so the
// assertion wire format and the persistence format cannot drift.

func (a *Assertion) tbs() []byte {
	e := wire.NewEncoder()
	e.Str("cas-assertion-v2")
	e.Str(a.VO.String())
	e.Str(a.Subject.String())
	authz.WireEncodeStrings(e, a.Groups)
	authz.WireEncodeStrings(e, a.Roles)
	e.I64(a.IssuedAt.Unix())
	e.I64(a.ExpiresAt.Unix())
	e.U32(uint32(len(a.Rules)))
	for _, r := range a.Rules {
		authz.WireEncodeRule(e, r)
	}
	return e.Finish()
}

// Encode serialises the assertion with its signature.
func (a *Assertion) Encode() []byte {
	return wire.NewEncoder().Bytes(a.tbs()).Bytes(a.Signature).Finish()
}

// DecodeAssertion parses an encoded assertion (signature not verified).
func DecodeAssertion(b []byte) (*Assertion, error) {
	d := wire.NewDecoder(b)
	tbs := d.Bytes()
	sig := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, err
	}
	td := wire.NewDecoder(tbs)
	if magic := td.Str(); td.Err() == nil && magic != "cas-assertion-v2" {
		return nil, fmt.Errorf("cas: bad assertion magic %q", magic)
	}
	a := &Assertion{}
	voStr := td.Str()
	subjStr := td.Str()
	a.Groups = authz.WireDecodeStrings(td)
	a.Roles = authz.WireDecodeStrings(td)
	a.IssuedAt = time.Unix(td.I64(), 0).UTC()
	a.ExpiresAt = time.Unix(td.I64(), 0).UTC()
	n := td.Count("assertion rule", maxAssertionRules)
	for i := 0; i < n && td.Err() == nil; i++ {
		a.Rules = append(a.Rules, authz.WireDecodeRule(td))
	}
	if err := td.Done(); err != nil {
		return nil, err
	}
	var err error
	if a.VO, err = gridcert.ParseName(voStr); err != nil {
		return nil, err
	}
	if a.Subject, err = gridcert.ParseName(subjStr); err != nil {
		return nil, err
	}
	a.Signature = sig
	return a, nil
}

// Verify checks the signature and validity window against the CAS
// server's certificate.
func (a *Assertion) Verify(casCert *gridcert.Certificate, now time.Time) error {
	if !casCert.Subject.Equal(a.VO) {
		return fmt.Errorf("cas: assertion VO %q does not match CAS certificate %q", a.VO, casCert.Subject)
	}
	if err := a.chain.VerifySignature(casCert.PublicKey, a.tbs(), a.Signature); err != nil {
		return fmt.Errorf("cas: assertion signature: %w", err)
	}
	if now.Before(a.IssuedAt.Add(-time.Minute)) || now.After(a.ExpiresAt) {
		return errors.New("cas: assertion outside validity window")
	}
	return nil
}

// Server is the CAS server for one virtual organization.
type Server struct {
	cred *gridcert.Credential

	mu      sync.RWMutex
	members map[string][]string // member DN -> groups within the VO
	roles   map[string][]string // member DN -> roles within the VO
	// The tables' keys ascending, kept between exports (nil: to be sorted
	// again); exporters fill them under mu's read lock, hence orderMu.
	orderMu                sync.Mutex
	memberOrder, roleOrder []string
	policy                 *authz.Policy
	// version is the bundle version: bumped by every mutation, journaled
	// with it, exported in signed bundles. See state.go.
	version uint64
	journal func(payload []byte) error
	// deltaLog is the bounded recent-mutation history backing
	// ExportDelta; see delta.go.
	deltaLog []deltaLogEntry
	// AssertionLifetime bounds issued assertions (default 1h).
	AssertionLifetime time.Duration
	now               func() time.Time
}

// NewServer creates a CAS server from the VO's credential.
func NewServer(cred *gridcert.Credential) *Server {
	return &Server{
		cred:              cred,
		members:           make(map[string][]string),
		roles:             make(map[string][]string),
		policy:            authz.NewPolicy(authz.DenyOverrides),
		AssertionLifetime: time.Hour,
		now:               time.Now,
	}
}

// SetClock overrides the server clock (tests).
func (s *Server) SetClock(now func() time.Time) { s.now = now }

// VO returns the community identity.
func (s *Server) VO() gridcert.Name { return s.cred.Leaf().Subject }

// Certificate returns the CAS signing certificate that resources must
// trust for this VO.
func (s *Server) Certificate() *gridcert.Certificate { return s.cred.Leaf() }

// AddMember enrolls a user into the VO with the given groups, panicking
// on a journal failure; durable deployments use AddMemberChecked.
func (s *Server) AddMember(dn gridcert.Name, groups ...string) {
	if err := s.AddMemberChecked(dn, groups...); err != nil {
		panic(err)
	}
}

// RemoveMember expels a user; see AddMember for the journal contract.
func (s *Server) RemoveMember(dn gridcert.Name) {
	if err := s.RemoveMemberChecked(dn); err != nil {
		panic(err)
	}
}

// AssignRole grants VO roles to a member; issued assertions carry them
// so resources can write role-based local policy. See AddMember for the
// journal contract.
func (s *Server) AssignRole(dn gridcert.Name, roles ...string) {
	if err := s.AssignRoleChecked(dn, roles...); err != nil {
		panic(err)
	}
}

// Roles reports the member's VO roles.
func (s *Server) Roles(dn gridcert.Name) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.roles[dn.String()]...)
}

// IsMember reports membership and the member's groups.
func (s *Server) IsMember(dn gridcert.Name) ([]string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.members[dn.String()]
	return g, ok
}

// AddPolicy appends VO policy rules; see AddMember for the journal
// contract.
func (s *Server) AddPolicy(rules ...authz.Rule) {
	if err := s.AddPolicyChecked(rules...); err != nil {
		panic(err)
	}
}

// PolicySize returns the number of VO policy rules.
func (s *Server) PolicySize() int { return s.policy.Len() }

// IssueAssertion is step 1 of Figure 2: the authenticated member receives
// the subset of VO policy that applies to them, signed by the CAS server.
// The caller must have authenticated requester (e.g. via a GSS context);
// CAS trusts that identity here.
func (s *Server) IssueAssertion(requester gridcert.Name) (*Assertion, error) {
	return s.IssueAssertionContext(context.Background(), requester)
}

// IssueAssertionContext is IssueAssertion honoring ctx: the policy scan is
// abandoned when the context ends, so a request against a huge VO policy
// respects its deadline.
func (s *Server) IssueAssertionContext(ctx context.Context, requester gridcert.Name) (*Assertion, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, ok := s.IsMember(requester)
	if !ok {
		return nil, fmt.Errorf("cas: %q is not a member of VO %q", requester, s.VO())
	}
	roles := s.Roles(requester)
	// Select the rules that could ever apply to this member: rules that
	// name the member, one of its groups or roles, or everyone. CAS
	// resolves group membership at issuance, so each granted rule is
	// re-scoped to the subject directly — the resource need not know
	// VO-internal groups.
	var granted []authz.Rule
	probe := authz.Request{Subject: requester, Groups: groups, Roles: roles}
	for i, r := range s.policy.Rules() {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ruleCouldApply(r, probe) {
			scoped := r
			scoped.Subjects = []string{requester.String()}
			scoped.Groups = nil
			scoped.Roles = nil
			granted = append(granted, scoped)
		}
	}
	now := s.now()
	// Final gate before signing: nothing is signed for a caller that has
	// already gone away.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := &Assertion{
		VO:        s.VO(),
		Subject:   requester,
		Groups:    append([]string(nil), groups...),
		Roles:     roles,
		Rules:     granted,
		IssuedAt:  now,
		ExpiresAt: now.Add(s.AssertionLifetime),
	}
	sig, err := s.cred.Key.Sign(a.tbs())
	if err != nil {
		return nil, err
	}
	a.Signature = sig
	return a, nil
}

// ruleCouldApply checks subject/group applicability ignoring
// resource/action (those are evaluated at the resource).
func ruleCouldApply(r authz.Rule, probe authz.Request) bool {
	test := r
	test.Resources = nil
	test.Actions = nil
	test.NotBefore = time.Time{}
	test.NotAfter = time.Time{}
	return test.Matches(probe)
}

// EmbedInProxy is step 2 of Figure 2: wrap the assertion in a restricted
// proxy certificate signed by the member's credential, producing the
// credential the member presents to resources.
func EmbedInProxy(member *gridcert.Credential, a *Assertion) (*gridcert.Credential, error) {
	if !a.Subject.Equal(member.Identity()) {
		return nil, fmt.Errorf("cas: assertion subject %q does not match credential identity %q",
			a.Subject, member.Identity())
	}
	return proxy.New(member, proxy.Options{
		Variant:        gridcert.ProxyRestricted,
		PolicyLanguage: PolicyLanguage,
		Policy:         a.Encode(),
		Lifetime:       time.Until(a.ExpiresAt),
	})
}

// ErrNoAssertion reports a chain that carries no CAS policy block at
// all. Callers branch on it to distinguish "the requester simply did
// not present community credentials" (fall back to local policy) from
// "the requester presented a CAS block that does not parse" (which must
// deny — see Enforcer.AuthorizeContext).
var ErrNoAssertion = errors.New("cas: chain carries no CAS assertion")

// ExtractAssertion recovers a CAS assertion from a validated chain's
// restricted-proxy policy blocks. Absence is reported as ErrNoAssertion;
// any other error means a CAS block was present but malformed.
func ExtractAssertion(info *gridcert.ChainInfo) (*Assertion, error) {
	for _, pi := range info.Restricted {
		if pi.PolicyLanguage == PolicyLanguage {
			a, err := DecodeAssertion(pi.Policy)
			if err != nil {
				return nil, fmt.Errorf("cas: malformed assertion in chain: %w", err)
			}
			a.chain = info
			return a, nil
		}
	}
	return nil, ErrNoAssertion
}
