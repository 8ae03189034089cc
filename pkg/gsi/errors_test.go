package gsi_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/pkg/gsi"
)

// testbed is a single-CA world for API tests.
type testbed struct {
	env   *gsi.Environment
	ca    *gsi.CA
	alice *gsi.Credential
	host  *gsi.Credential
}

func newTestbed(t testing.TB) *testbed {
	t.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host svc"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{env: env, ca: authority, alice: alice, host: host}
}

// TestErrorTaxonomyUntrustedIssuer: authenticating against an
// environment that does not trust the peer's CA surfaces
// ErrUntrustedIssuer through errors.Is, with the *Error carrying the Op.
func TestErrorTaxonomyUntrustedIssuer(t *testing.T) {
	tb := newTestbed(t)
	// A second world whose environment does NOT trust tb's CA.
	otherCA, err := gsi.NewCA("/O=Other/CN=CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	otherEnv, err := gsi.NewEnvironment(gsi.WithRoots(otherCA.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	client, err := otherEnv.NewClient(tb.alice) // Alice's chain is alien to otherEnv
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Establish(context.Background(), gsi.ContextConfig{
		Credential: tb.host,
		TrustStore: tb.env.Trust(),
	})
	if err == nil {
		t.Fatal("establish succeeded across disjoint trust roots")
	}
	if !errors.Is(err, gsi.ErrAuthentication) && !errors.Is(err, gsi.ErrUntrustedIssuer) {
		t.Fatalf("error not classified as authentication/untrusted: %v", err)
	}
	var ge *gsi.Error
	if !errors.As(err, &ge) {
		t.Fatalf("error is not *gsi.Error: %T", err)
	}
	if ge.Op == "" {
		t.Fatal("gsi.Error.Op empty")
	}
}

// TestErrorTaxonomyExpiredCredential: a credential past its NotAfter is
// classified ErrExpiredCredential, and the original gridcert sentinel
// stays reachable through the wrap chain.
func TestErrorTaxonomyExpiredCredential(t *testing.T) {
	tb := newTestbed(t)
	short, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Shortlived"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Hour)
	env, err := gsi.NewEnvironment(
		gsi.WithRoots(tb.ca.Certificate()),
		gsi.WithClock(func() time.Time { return future }),
	)
	if err != nil {
		t.Fatal(err)
	}
	client, err := env.NewClient(short)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Establish(context.Background(), gsi.ContextConfig{
		Credential: tb.host,
		TrustStore: env.Trust(),
		Now:        env.Now,
	})
	if err == nil {
		t.Fatal("established with an expired credential")
	}
	if !errors.Is(err, gsi.ErrExpiredCredential) {
		t.Fatalf("not classified expired: %v", err)
	}
	if !errors.Is(err, gridcert.ErrExpired) {
		t.Fatalf("internal sentinel lost from chain: %v", err)
	}
}

// TestErrorTaxonomyContextClosed: every context-aware entry point
// returns ErrContextClosed for an already-canceled context, and the
// underlying context.Canceled stays matchable.
func TestErrorTaxonomyContextClosed(t *testing.T) {
	tb := newTestbed(t)
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, _, err := client.Establish(canceled, gsi.ContextConfig{Credential: tb.host, TrustStore: tb.env.Trust()}); !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Establish: %v", err)
	}
	if _, err := client.Connect(canceled, "127.0.0.1:1"); !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("Connect: %v", err)
	}
	vo := gsi.NewCASServer(tb.alice)
	if _, err := client.RequestAssertion(canceled, vo); !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("RequestAssertion: %v", err)
	}
}

// TestErrorOpString: the formatted error leads with the public
// operation.
func TestErrorOpString(t *testing.T) {
	e := &gsi.Error{Op: "gsi.Client.Connect", Kind: gsi.ErrTransport, Err: errors.New("boom")}
	if got := e.Error(); got != "gsi.Client.Connect: boom" {
		t.Fatalf("Error() = %q", got)
	}
	if !errors.Is(e, gsi.ErrTransport) {
		t.Fatal("Kind not matchable")
	}
}
