package gsi

import (
	"context"
	"testing"
	"time"

	"repro/internal/israce"
)

// probeWorld stands up a GT2 endpoint and a raw (unpooled) GT2 session
// against it, exposing the prober the pool's idle health check uses.
func newProbeWorld(t testing.TB) (sessionProber, func()) {
	t.Helper()
	authority, err := NewCA("/O=Grid/CN=Probe CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvironment(WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(MustParseName("/O=Grid/CN=host probe"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server, err := env.NewServer(host)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := TransportGT2().Dial(ctx, ep.Addr(), DialConfig{
		Context: ContextConfig{Credential: alice, TrustStore: env.Trust()},
	})
	if err != nil {
		ep.Close()
		t.Fatal(err)
	}
	pr := sess.(sessionProber)
	return pr, func() {
		sess.Close()
		ep.Close()
	}
}

// The idle-pool liveness probe must not allocate: it assembles the ping
// in a pooled record buffer, seals in place, and discards the reply
// view instead of copying it — on both the client and the server loop.
func TestProbeZeroAlloc(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	pr, done := newProbeWorld(t)
	defer done()
	ctx := context.Background()
	if err := pr.Probe(ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := pr.Probe(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("idle probe allocates %.1f/op, want 0", allocs)
	}
}
