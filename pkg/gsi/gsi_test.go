package gsi_test

import (
	"context"
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

func TestPublicAPIServiceStack(t *testing.T) {
	tb := newTestbed(t)
	req := &gsi.Requestor{Credential: tb.alice, Trust: tb.env.Trust()}
	out, trace, err := req.InvokeContext(context.Background(), gsi.PipeTransport(newPingContainer(t, tb)), "ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	if trace.Invocation <= 0 {
		t.Fatal("no trace")
	}
}

func TestPublicAPIOverHTTP(t *testing.T) {
	tb := newTestbed(t)
	url, shutdown, err := gsi.ServeHTTP(newPingContainer(t, tb), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	req := &gsi.Requestor{Credential: tb.alice, Trust: tb.env.Trust()}
	out, _, err := req.InvokeContext(context.Background(), gsi.HTTPTransport(url), "ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
}
