package gsi_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gridcert"
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

// TestAuthorizeColdAllocs pins ROADMAP 1(d)'s number: a cold decision —
// a bare VO member decided through the bundle replica, 64 local rules
// that do not match ahead of the one that does (half naming a subject,
// half a group, as the benchmark's data server has them), durable
// state, no decision audit — stays at or under 5 allocations (3 as
// written: the one rendering of the identity, the verified chain's
// ChainInfo, the cache entry). Rendering the DN at each replica, rule and
// gridmap lookup, with rules copied out of the scan, read 12; once per
// subject-listing rule, 147.
func TestAuthorizeColdAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	bed := newAuthzBed(t)
	bed.vo.AddPolicy(gsi.Rule{
		ID: "vo-data", Effect: gsi.EffectPermit,
		Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"*"},
	})
	pl, err := bed.env.NewAuthorizationPipeline(
		gsi.WithDurableState(t.TempDir()),
		gsi.WithoutDecisionAudit(),
		gsi.WithTrustedVO(bed.vo.Certificate()),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{Endpoints: []string{"unused:0"}, Cert: bed.vo.Certificate()}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := pl.DurableState()
	t.Cleanup(func() { ds.Close() })
	for i := 0; i < 64; i++ {
		r := gsi.Rule{
			ID: fmt.Sprintf("site-%02d", i), Effect: gsi.EffectPermit,
			Resources: []string{fmt.Sprintf("data:/site-%02d/*", i)}, Actions: []string{"read"},
		}
		if i%2 == 0 {
			r.Subjects = []string{fmt.Sprintf("/O=Grid/OU=Site/CN=operator %02d", i)}
		} else {
			r.Groups = []string{fmt.Sprintf("site-%02d", i)}
		}
		if err := ds.Policy().AddChecked(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Policy().AddChecked(gsi.Rule{
		ID: "local-data", Effect: gsi.EffectPermit,
		Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"*"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.GridMap().AddChecked(bed.alice.Identity(), "alice"); err != nil {
		t.Fatal(err)
	}
	bundle, err := bed.vo.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Replica().Apply(bundle); err != nil {
		t.Fatal(err)
	}
	info, err := bed.env.Trust().Verify(bed.alice.Chain, gsi.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peer := gsi.Peer{Identity: info.Identity, Subject: info.Subject, Chain: bed.alice.Chain, Info: info}
	ctx := context.Background()
	// A new action every call, so no call is answered from the cache.
	actions := make([]string, 400)
	for i := range actions {
		actions[i] = fmt.Sprintf("probe-%d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(actions)-2, func() {
		d, err := pl.Authorize(ctx, peer, "data:/climate/run1", actions[next])
		next++
		if err != nil || d.Decision != gsi.Permit || d.Cached {
			t.Fatalf("cold decision: %+v %v", d, err)
		}
	})
	t.Logf("cold decision: %.0f allocations", allocs)
	if allocs > 5 {
		t.Fatalf("a cold decision allocates %.0f, want <= 5", allocs)
	}
}

// TestStrandedDecisionsDoNoCurveWork: what a trust-plane write costs the
// decisions it strands. 2,000 subjects, one in five carrying a CAS
// assertion, are decided once; a gridmap write strands every cached
// decision; all 2,000 are decided again, every one a cache miss that runs
// the whole evaluation — and not one signature meets the curve, the
// links' or the assertions'. What the store remembers is arithmetic only:
// a CRL naming one carrier denies that carrier on the very next decision.
func TestStrandedDecisionsDoNoCurveWork(t *testing.T) {
	if israce.Enabled {
		t.Skip("single-threaded, and 5,000 signatures' worth of instrumented curve arithmetic")
	}
	bed := newAuthzBed(t)
	pl, err := bed.env.NewAuthorizationPipeline(
		gsi.WithDurableState(t.TempDir()),
		gsi.WithoutDecisionAudit(),
		gsi.WithTrustedVO(bed.vo.Certificate()),
	)
	if err != nil {
		t.Fatal(err)
	}
	ds := pl.DurableState()
	t.Cleanup(func() { ds.Close() })
	if err := ds.Policy().AddChecked(gsi.Rule{
		ID: "local-exchange", Effect: gsi.EffectPermit,
		Subjects: []string{"*"}, Resources: []string{"ogsa:gsi.exchange"}, Actions: []string{"*"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const subjects = 2000
	peers := make([]gsi.Peer, subjects)
	accounts := gsi.NewGridMap()
	var carrier *gsi.Credential // the first subject with an assertion
	for k := range peers {
		cred, err := bed.ca.NewEntity(gsi.MustParseName(fmt.Sprintf("/O=Grid/OU=Members/CN=member %04d", k)), 72*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if k%5 == 0 {
			bed.vo.AddMember(cred.Identity(), "researchers")
			c, err := bed.env.NewClient(cred)
			if err != nil {
				t.Fatal(err)
			}
			a, err := c.RequestAssertion(ctx, bed.vo)
			if err != nil {
				t.Fatal(err)
			}
			if cred, err = c.EmbedAssertion(a); err != nil {
				t.Fatal(err)
			}
			if carrier == nil {
				carrier = cred
			}
		}
		peers[k] = gsi.Peer{Identity: cred.Identity(), Subject: cred.Leaf().Subject, Chain: cred.Chain}
		accounts.Add(cred.Identity(), "member")
	}
	if err := ds.GridMap().Replace(accounts); err != nil {
		t.Fatal(err)
	}
	decideAll := func() (misses, checks uint64) {
		t.Helper()
		cache, sigs := pl.CacheStats(), bed.env.Trust().SignatureStats()
		for k, peer := range peers {
			d, err := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "read")
			if err != nil || d.Decision != gsi.Permit || (k%5 == 0) != (d.VO == gsi.Permit) {
				t.Fatalf("subject %d: %+v %v", k, d, err)
			}
		}
		return pl.CacheStats().Misses - cache.Misses, bed.env.Trust().SignatureStats().Checks - sigs.Checks
	}
	// Every subject's own certificate, and a proxy and an assertion for
	// each carrier.
	if misses, checks := decideAll(); misses != subjects || checks != subjects+2*subjects/5 {
		t.Fatalf("first pass: %d cache misses, %d signature checks", misses, checks)
	}
	if err := ds.GridMap().AddChecked(bed.bob.Identity(), "bob"); err != nil {
		t.Fatal(err)
	}
	if misses, checks := decideAll(); misses != subjects || checks != 0 {
		t.Fatalf("after the gridmap write: %d cache misses (want %d, every decision stranded) and %d signature checks (want none)", misses, subjects, checks)
	}

	if err := bed.ca.Revoke(carrier.Chain[1].SerialNumber); err != nil {
		t.Fatal(err)
	}
	crl, err := bed.ca.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if err := bed.env.Trust().AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	before := bed.env.Trust().SignatureStats().Checks
	if d, err := pl.Authorize(ctx, peers[0], "ogsa:gsi.exchange", "read"); d.Decision != gsi.Deny || !errors.Is(err, gridcert.ErrRevoked) {
		t.Fatalf("revoked carrier, every signature of its chain in the memo: %+v %v", d, err)
	}
	if d, err := pl.Authorize(ctx, peers[1], "ogsa:gsi.exchange", "read"); err != nil || d.Decision != gsi.Permit {
		t.Fatalf("the next subject, under the same CRL: %+v %v", d, err)
	}
	if checks := bed.env.Trust().SignatureStats().Checks - before; checks != 0 {
		t.Errorf("%d signature checks after the CRL", checks)
	}
}
