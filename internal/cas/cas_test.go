package cas

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
)

// voBed is a full CAS test fixture: a CA, a VO with a CAS server, a
// member, and a resource enforcer.
type voBed struct {
	auth     *ca.Authority
	trust    *gridcert.TrustStore
	server   *Server
	alice    *gridcert.Credential
	bob      *gridcert.Credential
	enforcer *Enforcer
}

func newVOBed(t testing.TB) *voBed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	voCred, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=ClimateVO CAS"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(voCred)
	server.AddMember(alice.Identity(), "researchers")
	server.AddPolicy(authz.Rule{
		ID:        "vo-read",
		Effect:    authz.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})

	// The resource's local policy: members of the grid CA may read and
	// write its climate data (the VO will narrow this to read-only).
	local := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		ID:        "local-allow",
		Effect:    authz.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read", "write"},
	})
	enforcer := NewEnforcer(trust, local)
	enforcer.TrustVO(server.Certificate())
	return &voBed{auth: auth, trust: trust, server: server, alice: alice, bob: bob, enforcer: enforcer}
}

func TestAssertionRoundTrip(t *testing.T) {
	bed := newVOBed(t)
	a, err := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAssertion(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.VO.Equal(a.VO) || !dec.Subject.Equal(a.Subject) || len(dec.Rules) != len(a.Rules) {
		t.Fatal("assertion round-trip mismatch")
	}
	if err := dec.Verify(bed.server.Certificate(), time.Now()); err != nil {
		t.Fatalf("decoded assertion does not verify: %v", err)
	}
}

func TestAssertionTamperDetected(t *testing.T) {
	bed := newVOBed(t)
	a, _ := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	enc := a.Encode()
	enc[len(enc)/3] ^= 1
	dec, err := DecodeAssertion(enc)
	if err != nil {
		return // structural rejection also fine
	}
	if err := dec.Verify(bed.server.Certificate(), time.Now()); err == nil {
		t.Fatal("tampered assertion verified")
	}
}

func TestNonMemberDeniedAssertion(t *testing.T) {
	bed := newVOBed(t)
	if _, err := bed.server.IssueAssertionContext(context.Background(), bed.bob.Identity()); err == nil {
		t.Fatal("non-member received assertion")
	}
	bed.server.AddMember(bed.bob.Identity())
	if _, err := bed.server.IssueAssertionContext(context.Background(), bed.bob.Identity()); err != nil {
		t.Fatal(err)
	}
	bed.server.RemoveMemberChecked(bed.bob.Identity())
	if _, err := bed.server.IssueAssertionContext(context.Background(), bed.bob.Identity()); err == nil {
		t.Fatal("expelled member received assertion")
	}
}

func TestAssertionScopedToMember(t *testing.T) {
	bed := newVOBed(t)
	// A rule for a different group must not leak into Alice's assertion.
	bed.server.AddPolicy(authz.Rule{
		ID:     "admins-only",
		Effect: authz.EffectPermit,
		Groups: []string{"admins"},
	})
	a, err := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Rules {
		if r.ID == "admins-only" {
			t.Fatal("rule for another group leaked into assertion")
		}
	}
}

// TestFigure2Flow exercises the full three-step CAS flow.
func TestFigure2Flow(t *testing.T) {
	bed := newVOBed(t)

	// Step 1: Alice gets her assertion.
	a, err := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	// Step 2: she embeds it in a restricted proxy.
	proxyCred, err := EmbedInProxy(bed.alice, a)
	if err != nil {
		t.Fatal(err)
	}
	// Step 3: the resource authorizes read (VO permits, local permits)…
	res, err := bed.enforcer.Authorize(proxyCred.Chain, "data:/climate/run1", "read", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != authz.Permit {
		t.Fatalf("read: %+v", res)
	}
	// …but denies write: local policy would allow it, the VO assertion
	// does not, and the applied policy is the intersection.
	res, err = bed.enforcer.Authorize(proxyCred.Chain, "data:/climate/run1", "write", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != authz.Deny {
		t.Fatalf("write: %+v", res)
	}
	if res.Local != authz.Permit || res.VO == authz.Permit {
		t.Fatalf("component decisions: %+v", res)
	}
}

func TestResourceRemainsUltimateAuthority(t *testing.T) {
	bed := newVOBed(t)
	// The VO grants delete on everything, but local policy does not.
	bed.server.AddPolicy(authz.Rule{
		ID:        "vo-generous",
		Effect:    authz.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"*"},
		Actions:   []string{"delete"},
	})
	a, _ := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	proxyCred, _ := EmbedInProxy(bed.alice, a)
	res, err := bed.enforcer.Authorize(proxyCred.Chain, "data:/climate/run1", "delete", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != authz.Deny {
		t.Fatal("VO policy overrode local authority")
	}
	if res.VO != authz.Permit || res.Local == authz.Permit {
		t.Fatalf("component decisions: %+v", res)
	}
}

func TestUntrustedVOAssertionRejected(t *testing.T) {
	bed := newVOBed(t)
	rogueVO, err := bed.auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Rogue CAS"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rogue := NewServer(rogueVO)
	rogue.AddMember(bed.alice.Identity(), "researchers")
	rogue.AddPolicy(authz.Rule{Effect: authz.EffectPermit, Groups: []string{"researchers"}})
	a, _ := rogue.IssueAssertionContext(context.Background(), bed.alice.Identity())
	proxyCred, _ := EmbedInProxy(bed.alice, a)
	res, _ := bed.enforcer.Authorize(proxyCred.Chain, "data:/climate/run1", "read", time.Time{})
	if res.Decision != authz.Deny {
		t.Fatal("assertion from untrusted VO accepted")
	}
	if !strings.Contains(res.Reason, "untrusted VO") {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestStolenAssertionRejected(t *testing.T) {
	bed := newVOBed(t)
	// Bob embeds Alice's assertion in his own proxy: EmbedInProxy refuses,
	// and even a hand-rolled embedding fails at the enforcer because the
	// assertion subject must match the authenticated identity.
	a, _ := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	if _, err := EmbedInProxy(bed.bob, a); err == nil {
		t.Fatal("EmbedInProxy accepted mismatched subject")
	}
	// Hand-rolled: bob issues his own restricted proxy carrying the blob.
	cred, err := handEmbed(bed.bob, a)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := bed.enforcer.Authorize(cred.Chain, "data:/climate/run1", "read", time.Time{})
	if res.Decision != authz.Deny {
		t.Fatal("stolen assertion accepted")
	}
}

func handEmbed(member *gridcert.Credential, a *Assertion) (*gridcert.Credential, error) {
	// Mirrors EmbedInProxy without the subject check.
	return proxyNewForTest(member, a.Encode())
}

func TestExpiredAssertionRejected(t *testing.T) {
	bed := newVOBed(t)
	past := time.Now().Add(-3 * time.Hour)
	bed.server.now = func() time.Time { return past }
	a, _ := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	// Embed manually since the proxy lifetime computation would clip.
	cred, err := proxyNewForTest(bed.alice, a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := bed.enforcer.Authorize(cred.Chain, "data:/climate/run1", "read", time.Time{})
	if res.Decision != authz.Deny {
		t.Fatal("expired assertion accepted")
	}
}

func TestNoAssertionFallsBackToLocalOnly(t *testing.T) {
	bed := newVOBed(t)
	// Alice presents her bare credential (no proxy, no assertion): local
	// policy alone decides — and it permits read.
	res, err := bed.enforcer.Authorize(bed.alice.Chain, "data:/climate/run1", "read", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != authz.Permit || res.VO != authz.NotApplicable {
		t.Fatalf("%+v", res)
	}
	// For a resource not covered by local policy, deny.
	res, _ = bed.enforcer.Authorize(bed.alice.Chain, "data:/secret", "read", time.Time{})
	if res.Decision != authz.Deny {
		t.Fatalf("%+v", res)
	}
}

func BenchmarkIssueAssertion(b *testing.B) {
	bed := newVOBed(b)
	for i := 0; i < 100; i++ {
		bed.server.AddPolicy(authz.Rule{
			Effect:    authz.EffectPermit,
			Groups:    []string{"researchers"},
			Resources: []string{"data:/other/*"},
			Actions:   []string{"read"},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnforcerAuthorize(b *testing.B) {
	bed := newVOBed(b)
	a, _ := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	cred, _ := EmbedInProxy(bed.alice, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bed.enforcer.Authorize(cred.Chain, "data:/climate/run1", "read", time.Time{})
		if err != nil || res.Decision != authz.Permit {
			b.Fatalf("%v %+v", err, res)
		}
	}
}
