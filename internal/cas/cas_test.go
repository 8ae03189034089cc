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

// voBed is a full CAS test fixture: a CA, a trust store holding it, a
// VO with a CAS server, a member and an outsider.
type voBed struct {
	auth   *ca.Authority
	trust  *gridcert.TrustStore
	server *Server
	alice  *gridcert.Credential
	bob    *gridcert.Credential
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
	return &voBed{auth: auth, trust: trust, server: server, alice: alice, bob: bob}
}

// check is a resource's test of the assertion a presented chain
// carries: the chain is validated against the bed's trust store, and
// the bed's VO is the only community trusted.
func (b *voBed) check(t testing.TB, chain []*gridcert.Certificate, now time.Time) (*Assertion, string, error) {
	t.Helper()
	info, err := b.trust.Verify(chain, gridcert.VerifyOptions{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	return CheckAssertion(info, trustOnly(b.server.Certificate()), now)
}

// trustOnly is a trusted-VO lookup that knows vo alone (nothing when vo
// is nil).
func trustOnly(vo *gridcert.Certificate) func(gridcert.Name) (*gridcert.Certificate, bool) {
	return func(n gridcert.Name) (*gridcert.Certificate, bool) {
		return vo, vo != nil && n.Equal(vo.Subject)
	}
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
	got, reason, _ := bed.check(t, proxyCred.Chain, time.Now())
	if got != nil {
		t.Fatal("assertion from untrusted VO accepted")
	}
	if !strings.Contains(reason, "untrusted VO") {
		t.Fatalf("reason = %q", reason)
	}
}

func TestStolenAssertionRejected(t *testing.T) {
	bed := newVOBed(t)
	// Bob embeds Alice's assertion in his own proxy: EmbedInProxy refuses,
	// and even a hand-rolled embedding fails the check because the
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
	got, reason, _ := bed.check(t, cred.Chain, time.Now())
	if got != nil {
		t.Fatal("stolen assertion accepted")
	}
	if reason != "assertion subject does not match authenticated identity" {
		t.Fatalf("reason = %q", reason)
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
	got, reason, err := bed.check(t, cred.Chain, time.Now())
	if got != nil {
		t.Fatal("expired assertion accepted")
	}
	if reason != "assertion verification failed" || err == nil {
		t.Fatalf("reason = %q, err = %v", reason, err)
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
