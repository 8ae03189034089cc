package cas

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/proxy"
)

// TestMalformedAssertionDenies is the fail-open regression: a chain
// carrying a CAS policy block that does not decode used to be treated
// exactly like a chain with no assertion at all, so a permissive local
// policy would still permit. "Present but invalid" must deny.
func TestMalformedAssertionDenies(t *testing.T) {
	bed := newVOBed(t)
	proxyCred, err := proxyNewForTest(bed.alice, []byte("!! not an assertion !!"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := bed.enforcer.Authorize(proxyCred.Chain, "data:/climate/run1", "read", time.Now())
	if err == nil {
		t.Fatal("malformed assertion produced no error")
	}
	if errors.Is(err, ErrNoAssertion) {
		t.Fatal("malformed assertion classified as absent")
	}
	if res.Decision != authz.Deny {
		t.Fatalf("malformed assertion decision %s, want deny (local policy alone would have permitted)", res.Decision)
	}
}

// TestAbsentAssertionFallsBackToLocal pins the other side of the
// distinction: truly assertion-free chains still ride on local policy.
func TestAbsentAssertionFallsBackToLocal(t *testing.T) {
	bed := newVOBed(t)
	plain, err := proxy.New(bed.alice, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bed.enforcer.Authorize(plain.Chain, "data:/climate/run1", "read", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != authz.Permit {
		t.Fatalf("assertion-free chain denied (%s): %s", res.Decision, res.Reason)
	}
	if res.VO != authz.NotApplicable {
		t.Fatalf("VO component %s, want not-applicable", res.VO)
	}
}

// TestExtractAssertionDistinguishesAbsence checks the sentinel contract
// directly.
func TestExtractAssertionDistinguishesAbsence(t *testing.T) {
	bed := newVOBed(t)
	plain, _ := proxy.New(bed.alice, proxy.Options{Lifetime: time.Hour})
	info, err := bed.trust.Verify(plain.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractAssertion(info); !errors.Is(err, ErrNoAssertion) {
		t.Fatalf("absent assertion: got %v, want ErrNoAssertion", err)
	}
	bad, _ := proxyNewForTest(bed.alice, []byte{0xff, 0x01})
	info, err = bed.trust.Verify(bad.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractAssertion(info); err == nil || errors.Is(err, ErrNoAssertion) {
		t.Fatalf("malformed assertion: got %v, want a non-ErrNoAssertion error", err)
	}
}

// TestSignedAssertionWithInvalidEffectDenies: even a correctly signed
// assertion must not smuggle a rule whose effect byte is outside the
// enum — the old engine treated effect 0 as Permit.
func TestSignedAssertionWithInvalidEffectDenies(t *testing.T) {
	bed := newVOBed(t)
	now := time.Now()
	a := &Assertion{
		VO:      bed.server.VO(),
		Subject: bed.alice.Identity(),
		Rules: []authz.Rule{{
			ID:        "zero-effect",
			Subjects:  []string{bed.alice.Identity().String()},
			Resources: []string{"data:/climate/*"},
			Actions:   []string{"read"},
			// Effect deliberately left at the zero value.
		}},
		IssuedAt:  now,
		ExpiresAt: now.Add(time.Hour),
	}
	sig, err := bed.server.cred.Key.Sign(a.tbs())
	if err != nil {
		t.Fatal(err)
	}
	a.Signature = sig
	proxyCred, err := EmbedInProxy(bed.alice, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bed.enforcer.Authorize(proxyCred.Chain, "data:/climate/run1", "read", now)
	if res.Decision != authz.Deny {
		t.Fatalf("zero-effect assertion rule permitted (decision %s, err %v)", res.Decision, err)
	}
	if err == nil {
		t.Fatal("zero-effect assertion rule produced no error")
	}
}

// TestAssertionCarriesVOAttributes: issued assertions now carry the
// member's groups and roles, verified end to end through the enforcer —
// local policy can match on community attributes.
func TestAssertionCarriesVOAttributes(t *testing.T) {
	bed := newVOBed(t)
	bed.server.AssignRole(bed.alice.Identity(), "operator")
	a, err := bed.server.IssueAssertionContext(context.Background(), bed.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 1 || a.Groups[0] != "researchers" {
		t.Fatalf("assertion groups %v, want [researchers]", a.Groups)
	}
	if len(a.Roles) != 1 || a.Roles[0] != "operator" {
		t.Fatalf("assertion roles %v, want [operator]", a.Roles)
	}
	dec, err := DecodeAssertion(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Groups) != 1 || dec.Groups[0] != "researchers" || len(dec.Roles) != 1 {
		t.Fatal("attributes lost in encode/decode round trip")
	}

	// A resource whose local policy keys on the VO group: only holders
	// of a verified assertion carrying that group pass.
	local := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		ID:        "group-gate",
		Effect:    authz.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})
	enf := NewEnforcer(bed.trust, local)
	enf.TrustVO(bed.server.Certificate())
	proxyCred, err := EmbedInProxy(bed.alice, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := enf.Authorize(proxyCred.Chain, "data:/climate/run1", "read", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != authz.Permit {
		t.Fatalf("group-gated local policy denied assertion holder: %s (%s)", res.Decision, res.Reason)
	}
	// Without an assertion the same identity carries no group: denied.
	plain, _ := proxy.New(bed.alice, proxy.Options{Lifetime: time.Hour})
	res, _ = enf.Authorize(plain.Chain, "data:/climate/run1", "read", time.Now())
	if res.Decision == authz.Permit {
		t.Fatal("group-gated policy permitted a chain without the VO attribute")
	}
}
