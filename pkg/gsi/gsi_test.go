package gsi_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow
// through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	tb := newTestbed(t)
	// Single sign-on: create a proxy.
	p, err := gsi.NewProxy(tb.alice, gsi.ProxyOptions{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	client, err := tb.env.NewClient(p)
	if err != nil {
		t.Fatal(err)
	}
	// Mutual authentication with the proxy.
	ictx, actx, err := client.Establish(context.Background(),
		gsi.ContextConfig{Credential: tb.host, TrustStore: tb.env.Trust()})
	if err != nil {
		t.Fatal(err)
	}
	if actx.Peer().Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("peer = %q", actx.Peer().Identity)
	}
	// Protected message.
	w, err := ictx.Wrap([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := actx.Unwrap(w); err != nil || string(pt) != "hello" {
		t.Fatalf("unwrap: %q %v", pt, err)
	}
}

type pingService struct{ *ogsa.Base }

func (s *pingService) Invoke(call *gsi.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	return []byte("pong:" + call.Caller.Name.String()), nil
}

// newPingContainer is a hosting environment under tb's host credential
// and trust roots, with a pingService published as "ping".
func newPingContainer(t testing.TB, tb *testbed) *gsi.Container {
	t.Helper()
	c, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       "svc",
		Credential: tb.host,
		TrustStore: tb.env.Trust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Publish("ping", &pingService{Base: ogsa.NewBase()})
	return c
}

// TestPublicAPIServiceStack: a ServiceClient wired in-process through
// PipeTransport reaches a container service over a secure conversation
// and is served under its authenticated identity.
func TestPublicAPIServiceStack(t *testing.T) {
	tb := newTestbed(t)
	svc := &gsi.ServiceClient{
		Transport:  gsi.PipeTransport(newPingContainer(t, tb)),
		Credential: tb.alice,
		TrustStore: tb.env.Trust(),
	}
	out, err := svc.InvokeSecure("ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
}

// TestPublicAPIOverHTTP: a GT3 Client's Invoke reaches a container
// service over real HTTP; a GT2 client's Invoke is refused before any
// I/O, since only GT3 containers have service handles.
func TestPublicAPIOverHTTP(t *testing.T) {
	tb := newTestbed(t)
	url, shutdown, err := gsi.ServeHTTP(newPingContainer(t, tb), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	client, err := tb.env.NewClient(tb.alice, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := client.Invoke(context.Background(), url, "ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	gt2, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gt2.Invoke(context.Background(), url, "ping", "ping", nil); err == nil || !strings.Contains(err.Error(), "GT3") {
		t.Fatalf("GT2 Invoke: %v, want a refusal naming GT3", err)
	}
}
