package cas

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/proxy"
)

// TestMalformedAssertionDenies is the fail-open regression: a chain
// carrying a CAS policy block that does not decode used to be treated
// exactly like a chain with no assertion at all, so a permissive local
// policy would still permit. "Present but invalid" must come back with
// a reason to deny.
func TestMalformedAssertionDenies(t *testing.T) {
	bed := newVOBed(t)
	proxyCred, err := proxyNewForTest(bed.alice, []byte("!! not an assertion !!"))
	if err != nil {
		t.Fatal(err)
	}
	a, reason, err := bed.check(t, proxyCred.Chain, time.Now())
	if a != nil || reason != "CAS assertion present but invalid" {
		t.Fatalf("malformed assertion: got %v, reason %q; want a deny reason", a, reason)
	}
	if err == nil {
		t.Fatal("malformed assertion produced no error")
	}
	if errors.Is(err, ErrNoAssertion) {
		t.Fatal("malformed assertion classified as absent")
	}
}

// TestAbsentAssertionFallsBackToLocal pins the other side of the
// distinction: a truly assertion-free chain gets no deny reason, so the
// resource decides it on local policy alone.
func TestAbsentAssertionFallsBackToLocal(t *testing.T) {
	bed := newVOBed(t)
	plain, err := proxy.New(bed.alice, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	a, reason, err := bed.check(t, plain.Chain, time.Now())
	if a != nil || reason != "" || err != nil {
		t.Fatalf("assertion-free chain: got %v, reason %q, err %v; want nothing at all", a, reason, err)
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
	got, reason, err := bed.check(t, proxyCred.Chain, now)
	if got != nil || reason != "assertion carries a rule with an invalid effect" {
		t.Fatalf("zero-effect assertion rule accepted (got %v, reason %q)", got, reason)
	}
	if err == nil || !strings.Contains(err.Error(), `"zero-effect"`) {
		t.Fatalf("zero-effect assertion rule: err %v, want one naming the rule", err)
	}
}

// TestAssertionCarriesVOAttributes: issued assertions carry the
// member's groups and roles, and they survive encoding, embedding and
// the resource's check — what local policy may then match on.
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
	proxyCred, err := EmbedInProxy(bed.alice, a)
	if err != nil {
		t.Fatal(err)
	}
	got, reason, err := bed.check(t, proxyCred.Chain, time.Now())
	if got == nil {
		t.Fatalf("honest assertion refused: %s (%v)", reason, err)
	}
	if len(got.Groups) != 1 || got.Groups[0] != "researchers" || len(got.Roles) != 1 || got.Roles[0] != "operator" {
		t.Fatalf("checked assertion carries groups %v roles %v", got.Groups, got.Roles)
	}
}
