package gsi_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/israce"
	"repro/pkg/gsi"
)

// newEchoWorld serves an echo handler over GT2 and returns a pooled
// client for it, its pool warmed by one exchange, plus the endpoint
// address. opts apply to both ends.
func newEchoWorld(t testing.TB, opts ...gsi.Option) (*gsi.Client, string) {
	t.Helper()
	tb := newTestbed(t)
	server, err := tb.env.NewServer(tb.host, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	client, err := tb.env.NewClient(tb.alice, append([]gsi.Option{gsi.WithSessionPool(nil)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Pool().Close() })
	if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("steady")); err != nil {
		t.Fatal(err)
	}
	return client, ep.Addr()
}

// TestExchangeAllocs holds a steady-state pooled Exchange to 2
// allocations — the reply copy handed to the caller and its session
// bookkeeping — on its own, with the metrics plane attached to both
// ends, and with tracing present in the binary but not enabled: the
// instruments and the nil-tracer checks on the hot path are free.
func TestExchangeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	for _, tc := range []struct {
		name     string
		metrics  bool // one registry attached to both ends
		noTracer bool // assert no tracer materialized without WithTracing
	}{
		{"plain", false, false},
		{"metrics", true, false},
		{"tracing disabled", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []gsi.Option
			if tc.metrics {
				opts = append(opts, gsi.WithMetrics(gsi.NewMetricsRegistry()))
			}
			client, addr := newEchoWorld(t, opts...)
			if tc.noTracer && client.Tracer() != nil {
				t.Fatal("tracer materialized without WithTracing")
			}
			ctx := context.Background()
			payload := []byte("steady")
			allocs := testing.AllocsPerRun(2000, func() {
				if _, err := client.Exchange(ctx, addr, "echo", payload); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("pooled exchange allocates %.2f/op, want <= 2", allocs)
			}
		})
	}
}

// TestAuthorizeCachedDurableAllocs: a cached decision over WAL-backed
// policy and gridmap allocates nothing and stays cached. Durability is
// paid at mutation time, never on the decision hot path. The policy is
// 64 non-matching fillers ahead of the matching rule, with decision
// audit off so the cached path has no sink to feed — the deployment
// shape for load-bearing servers.
func TestAuthorizeCachedDurableAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	tb := newTestbed(t)
	pl, err := tb.env.NewAuthorizationPipeline(
		gsi.WithDurableState(t.TempDir()),
		gsi.WithoutDecisionAudit(),
		gsi.WithDecisionCache(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := pl.DurableState()
	t.Cleanup(func() { ds.Close() })
	filler := gsi.Rule{
		ID:        "filler",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Somebody Else"},
		Resources: []string{"data:/other/*"},
		Actions:   []string{"write"},
	}
	for i := 0; i < 64; i++ {
		if err := ds.Policy().AddChecked(filler); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Policy().AddChecked(gsi.Rule{
		ID:        "local-read",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.GridMap().AddChecked(tb.alice.Identity(), "alice"); err != nil {
		t.Fatal(err)
	}
	info, err := tb.env.Trust().Verify(tb.alice.Chain, gsi.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peer := gsi.Peer{Identity: info.Identity, Subject: info.Subject, Chain: tb.alice.Chain, Info: info}
	ctx := context.Background()
	decide := func() {
		d, err := pl.Authorize(ctx, peer, "data:/climate/run1", "read")
		if err != nil || d.Decision != gsi.Permit {
			t.Fatalf("%+v %v", d, err)
		}
	}
	decide() // the one cold evaluation
	allocs := testing.AllocsPerRun(2000, func() {
		d, err := pl.Authorize(ctx, peer, "data:/climate/run1", "read")
		if err != nil || d.Decision != gsi.Permit {
			t.Fatalf("%+v %v", d, err)
		}
		if !d.Cached {
			t.Fatal("decision fell out of the cache")
		}
	})
	if allocs != 0 {
		t.Fatalf("cached durable decision allocates %.2f/op, want 0", allocs)
	}
}
