package gsi_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// adminBed is an authzBed whose local policy lets Alice run every admin
// op, serving a traced GT3 endpoint with the admin port type.
func adminBed(t *testing.T) (*authzBed, *gsi.Server, gsi.Endpoint) {
	t.Helper()
	bed := newAuthzBed(t)
	bed.local.Add(gsi.Rule{
		ID:        "admin-ops",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{bed.alice.Identity().String()},
		Resources: []string{"ogsa:" + ogsa.AdminHandle},
		Actions:   []string{"*"},
	})
	server := bed.server(t, gsi.WithTransport(gsi.TransportGT3()), gsi.WithAdmin(), gsi.WithTracing())
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return bed, server, ep
}

// TestInvokeLeavesOneDecision: one admin Invoke is one authorized call —
// one decision in the audit chain and one server.authz span — with no
// warm-up call authorized and recorded beside it.
func TestInvokeLeavesOneDecision(t *testing.T) {
	bed, server, ep := adminBed(t)
	client, err := bed.env.NewClient(bed.alice, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(context.Background(), ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil); err != nil {
		t.Fatal(err)
	}
	var decisions []string
	for _, e := range bed.audit.Events() {
		if strings.HasPrefix(e.Event, "authz-") {
			decisions = append(decisions, e.Event+" "+e.Detail)
		}
	}
	if len(decisions) != 1 || !strings.HasPrefix(decisions[0], "authz-permit "+ogsa.AdminOpStats+" ") {
		t.Fatalf("one Invoke left decisions %q, want one permit of %s", decisions, ogsa.AdminOpStats)
	}
	// The gate ends its span before the reply leaves, so the recorder
	// already holds every span the call made.
	if spans := server.Tracer().Recorder().Snapshot(gsi.TraceQuery{Op: "server.authz", N: 100}); len(spans) != 1 {
		t.Fatalf("one Invoke left %d server.authz spans, want 1: %+v", len(spans), spans)
	}
}

// TestInvokeHonoursExpectedPeer: a peer pin the container's host does
// not match refuses Invoke as it refuses Connect.
func TestInvokeHonoursExpectedPeer(t *testing.T) {
	bed, _, ep := adminBed(t)
	ctx := context.Background()
	client, err := bed.env.NewClient(bed.alice, gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithExpectedPeer(gsi.MustParseName("/O=Grid/CN=host other")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Connect(ctx, ep.Addr()); !errors.Is(err, gsi.ErrAuthentication) {
		t.Fatalf("Connect with a wrong pin: %v, want ErrAuthentication", err)
	}
	if _, err := client.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil); !errors.Is(err, gsi.ErrAuthentication) {
		t.Fatalf("Invoke with a wrong pin: %v, want ErrAuthentication", err)
	}
}

// TestInvokeSigned: under ProtectionSigned, Invoke signs each request
// instead of opening a conversation — so the admin port type, which
// serves only established conversations, refuses it, while a plain
// container service answers it.
func TestInvokeSigned(t *testing.T) {
	bed, _, ep := adminBed(t)
	ctx := context.Background()
	client, err := bed.env.NewClient(bed.alice, gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithMessageProtection(gsi.ProtectionSigned))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil); err == nil ||
		!strings.Contains(err.Error(), "require an established secure conversation") {
		t.Fatalf("signed admin Invoke: %v, want a refusal for lack of a conversation", err)
	}

	tb := newTestbed(t)
	addr, shutdown, err := gsi.ServeHTTP(newPingContainer(t, tb), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	signed, err := tb.env.NewClient(tb.alice, gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithMessageProtection(gsi.ProtectionSigned))
	if err != nil {
		t.Fatal(err)
	}
	out, err := signed.Invoke(ctx, addr, "ping", "ping", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:/O=Grid/CN=Alice" {
		t.Fatalf("signed Invoke = %q", out)
	}
}

// TestInvokeRequestCount counts the HTTP requests reaching a container:
// an Invoke on a non-pooling client is the conversation's two token
// exchanges and the call; three on a pooling client share one
// conversation.
func TestInvokeRequestCount(t *testing.T) {
	tb := newTestbed(t)
	backend, shutdown, err := gsi.ServeHTTP(newPingContainer(t, tb), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	target, err := url.Parse(backend)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: target.Scheme, Host: target.Host})
	var requests atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		proxy.ServeHTTP(w, r)
	}))
	defer front.Close()
	endpoint := front.URL + target.Path
	ctx := context.Background()

	for _, tc := range []struct {
		name  string
		opts  []gsi.Option
		calls int
		want  int64
	}{
		{"single", nil, 1, 3},
		{"pooled", []gsi.Option{gsi.WithSessionPool(nil)}, 3, 5},
	} {
		client, err := tb.env.NewClient(tb.alice, append([]gsi.Option{gsi.WithTransport(gsi.TransportGT3())}, tc.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		requests.Store(0)
		for i := 0; i < tc.calls; i++ {
			if _, err := client.Invoke(ctx, endpoint, "ping", "ping", nil); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := requests.Load(); got != tc.want {
			t.Fatalf("%s: %d Invoke(s) made %d HTTP requests, want %d", tc.name, tc.calls, got, tc.want)
		}
		if pool := client.Pool(); pool != nil {
			pool.Close()
		}
	}
}
