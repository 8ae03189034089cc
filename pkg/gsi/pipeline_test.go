package gsi_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/secsvc"
	"repro/pkg/gsi"
)

// authzBed is a full authorization-pipeline fixture: a CA, an
// Environment, a host, a VO CAS server with one enrolled member
// (Alice, group "researchers", role "operator"), an outsider (Bob),
// a local policy, and a gridmap.
type authzBed struct {
	ca      *gsi.CA
	env     *gsi.Environment
	host    *gsi.Credential
	alice   *gsi.Credential // end-entity
	aliceVO *gsi.Credential // restricted proxy with embedded assertion
	bob     *gsi.Credential
	vo      *gsi.CASServer
	local   *gsi.Policy
	gridmap *gsi.GridMap
	audit   *secsvc.AuditLog
}

func newAuthzBed(t testing.TB) *authzBed {
	t.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host data"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=ClimateVO CAS"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vo := gsi.NewCASServer(voCred)
	vo.AssertionLifetime = 48 * time.Hour
	vo.AddMember(alice.Identity(), "researchers")
	vo.AssignRole(alice.Identity(), "operator")
	vo.AddPolicy(gsi.Rule{
		ID:        "vo-exchange",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"read", "echo"},
	})
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	assertion, err := aliceClient.RequestAssertion(context.Background(), vo)
	if err != nil {
		t.Fatal(err)
	}
	aliceVO, err := aliceClient.EmbedAssertion(assertion)
	if err != nil {
		t.Fatal(err)
	}
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "local-exchange",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	gm := gsi.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	return &authzBed{
		ca:  authority,
		env: env, host: host, alice: alice, aliceVO: aliceVO, bob: bob,
		vo: vo, local: local, gridmap: gm, audit: secsvc.NewAuditLog(),
	}
}

// opts is the bed's pipeline assembly: its local policy, VO, gridmap
// and audit log, then extra.
func (b *authzBed) opts(extra ...gsi.Option) []gsi.Option {
	return append([]gsi.Option{
		gsi.WithLocalPolicy(b.local),
		gsi.WithTrustedVO(b.vo.Certificate()),
		gsi.WithGridMap(b.gridmap),
		gsi.WithAuditSink(b.audit),
	}, extra...)
}

func (b *authzBed) pipeline(t testing.TB, extra ...gsi.Option) *gsi.AuthorizationPipeline {
	t.Helper()
	p, err := b.env.NewAuthorizationPipeline(b.opts(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// server builds the host's server, which assembles its pipeline from
// the bed's options plus extra.
func (b *authzBed) server(t testing.TB, extra ...gsi.Option) *gsi.Server {
	t.Helper()
	server, err := b.env.NewServer(b.host, b.opts(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return server
}

// serveEcho starts a server whose handler reports the mapped local
// account, so tests can observe Peer.LocalAccount end to end.
func (b *authzBed) serveEcho(t testing.TB, transport gsi.Transport) gsi.Endpoint {
	t.Helper()
	ep, err := b.server(t, gsi.WithTransport(transport)).Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return []byte("account=" + peer.LocalAccount), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func testPipelineEndToEnd(t *testing.T, transport gsi.Transport) {
	bed := newAuthzBed(t)
	ep := bed.serveEcho(t, transport)
	ctx := context.Background()

	// Alice, carrying her CAS assertion: VO ∩ local permits, gridmap
	// maps, and the handler sees the account.
	aliceCl, err := bed.env.NewClient(bed.aliceVO, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	out, err := aliceCl.Exchange(ctx, ep.Addr(), "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("assertion-carrying exchange denied: %v", err)
	}
	if string(out) != "account=alice" {
		t.Fatalf("handler saw %q, want account=alice (gridmap mapping lost)", out)
	}

	// The VO narrowed Alice to read/echo: a write op fails the VO leg
	// even though local policy alone would permit it.
	if _, err := aliceCl.Exchange(ctx, ep.Addr(), "write", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("VO-narrowed op: got %v, want ErrUnauthorized", err)
	}

	// Bob has no assertion and no gridmap entry: denied despite the
	// permissive local policy (fail-closed mapping).
	bobCl, err := bed.env.NewClient(bed.bob, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bobCl.Exchange(ctx, ep.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("unmapped peer: got %v, want ErrUnauthorized", err)
	}

	// Every decision landed in the tamper-evident audit chain.
	if bed.audit.Len() == 0 {
		t.Fatal("no audit events recorded")
	}
	if i := bed.audit.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupt at %d", i)
	}
	var permits, denies int
	for _, e := range bed.audit.Events() {
		switch e.Event {
		case "authz-permit":
			permits++
		case "authz-deny":
			denies++
		}
	}
	if permits == 0 || denies == 0 {
		t.Fatalf("audit trail incomplete: %d permits, %d denies", permits, denies)
	}
}

func TestPipelineEndToEndGT2(t *testing.T) { testPipelineEndToEnd(t, gsi.TransportGT2()) }
func TestPipelineEndToEndGT3(t *testing.T) { testPipelineEndToEnd(t, gsi.TransportGT3()) }

// TestPipelineMalformedAssertionDenied: a peer presenting a restricted
// proxy whose CAS policy block is garbage must be denied at the facade,
// not silently downgraded to local-only policy.
func TestPipelineMalformedAssertionDenied(t *testing.T) {
	bed := newAuthzBed(t)
	ep := bed.serveEcho(t, gsi.TransportGT2())

	garbage, err := proxy.New(bed.alice, proxy.Options{
		Variant:        gridcert.ProxyRestricted,
		PolicyLanguage: cas.PolicyLanguage,
		Policy:         []byte("definitely not an assertion"),
		Lifetime:       time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := bed.env.NewClient(garbage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("malformed assertion: got %v, want ErrUnauthorized", err)
	}
}

// TestPipelineClockPlumbing is the clock regression: time-bounded rules
// must be evaluated against the Environment clock (WithClock), not a
// time.Now fallback inside the engine.
func TestPipelineClockPlumbing(t *testing.T) {
	fake := time.Now().Add(48 * time.Hour)
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(
		gsi.WithRoots(authority.Certificate()),
		gsi.WithClock(func() time.Time { return fake }),
	)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host clock"), 72*time.Hour)
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 72*time.Hour)

	// The rule's window brackets the fake clock only: under the real
	// clock it has not started yet, so a time.Now fallback would deny.
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "window",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
		NotBefore: fake.Add(-time.Hour),
		NotAfter:  fake.Add(time.Hour),
	})
	server, err := env.NewServer(host, gsi.WithLocalPolicy(local))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "op", nil); err != nil {
		t.Fatalf("rule valid at the environment clock was denied (engine fell back to time.Now): %v", err)
	}

	// The inverse: a rule whose window brackets the real clock but not
	// the fake one must deny.
	local.Remove("window")
	local.Add(gsi.Rule{
		ID:        "real-window",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
		NotBefore: time.Now().Add(-time.Hour),
		NotAfter:  time.Now().Add(time.Hour),
	})
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "op", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("rule outside the environment clock: got %v, want ErrUnauthorized", err)
	}
}

// TestDecisionCacheHitsAndInvalidation drives the cache directly:
// repeated decisions hit, every mutation class invalidates on the very
// next authorize.
func TestDecisionCacheHitsAndInvalidation(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t, gsi.WithDecisionCache(time.Minute))
	ctx := context.Background()
	peer := gsi.Peer{Identity: bed.alice.Identity(), Subject: bed.aliceVO.Leaf().Subject, Chain: bed.aliceVO.Chain}

	d1, err := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if err != nil || d1.Decision != gsi.Permit {
		t.Fatalf("cold authorize: %+v %v", d1, err)
	}
	if d1.Cached {
		t.Fatal("first decision claims cached")
	}
	if d1.LocalAccount != "alice" {
		t.Fatalf("account %q, want alice", d1.LocalAccount)
	}
	d2, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if !d2.Cached || d2.Decision != gsi.Permit || d2.LocalAccount != "alice" {
		t.Fatalf("second authorize not served from cache: %+v", d2)
	}
	if st := pl.CacheStats(); st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}

	// Local-policy mutation invalidates immediately.
	bed.local.Remove("local-exchange")
	d3, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d3.Cached {
		t.Fatal("decision served from cache across a policy mutation")
	}
	if d3.Decision != gsi.Deny {
		t.Fatalf("revoked local rule still permits: %+v", d3)
	}
	bed.local.Add(gsi.Rule{
		ID: "local-exchange", Effect: gsi.EffectPermit,
		Subjects: []string{"*"}, Resources: []string{"ogsa:gsi.exchange"}, Actions: []string{"*"},
	})

	// Gridmap mutation invalidates immediately.
	pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo") // repopulate
	bed.gridmap.Remove(bed.alice.Identity())
	d4, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d4.Cached || d4.Decision != gsi.Deny {
		t.Fatalf("gridmap removal not honored on next exchange: %+v", d4)
	}
	bed.gridmap.Add(bed.alice.Identity(), "alice")

	// VO-set mutation invalidates immediately.
	pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	pl.DistrustVO(bed.vo.VO())
	d5, _ := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
	if d5.Cached || d5.Decision != gsi.Deny {
		t.Fatalf("distrusted VO still honored: %+v", d5)
	}

	// The decisions each mutation stranded can never be looked up again,
	// and are not kept: only the current generation's is held.
	if st := pl.CacheStats(); st.Len != 1 {
		t.Fatalf("cache holds %d decisions after the mutations, want 1", st.Len)
	}
}

// TestDecisionCacheDisabled: WithDecisionCache(0) evaluates every time.
func TestDecisionCacheDisabled(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t, gsi.WithDecisionCache(0))
	ctx := context.Background()
	peer := gsi.Peer{Identity: bed.alice.Identity(), Chain: bed.aliceVO.Chain}
	for i := 0; i < 3; i++ {
		d, err := pl.Authorize(ctx, peer, "ogsa:gsi.exchange", "echo")
		if err != nil || d.Decision != gsi.Permit || d.Cached {
			t.Fatalf("iteration %d: %+v %v", i, d, err)
		}
	}
	if st := pl.CacheStats(); st.Hits != 0 || st.Len != 0 {
		t.Fatalf("disabled cache has state: %+v", st)
	}
}

// TestPipelineRevocationBitesLiveConnection: a CRL installed after the
// handshake must deny the peer's very next exchange on the same
// session — the pipeline re-validates through the generation-aware
// verify cache instead of trusting handshake-time ChainInfo forever.
func TestPipelineRevocationBitesLiveConnection(t *testing.T) {
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	host, _ := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host crl"), 72*time.Hour)
	alice, _ := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 72*time.Hour)
	local := gsi.NewPolicy(gsi.Rule{
		ID: "allow", Effect: gsi.EffectPermit,
		Subjects: []string{"*"}, Resources: []string{"*"}, Actions: []string{"*"},
	})
	server, err := env.NewServer(host,
		gsi.WithLocalPolicy(local), gsi.WithDecisionCache(time.Minute))
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
	defer ep.Close()
	cl, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	// One long-lived session: handshake once, exchange across the
	// revocation without reconnecting.
	sess, err := cl.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exchange(ctx, "op", nil); err != nil {
		t.Fatalf("pre-revocation exchange: %v", err)
	}
	if err := authority.Revoke(alice.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	crl, err := authority.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Trust().AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	// The refusal is an authentication failure (the chain no longer
	// validates), not a policy deny, so it crosses the wire as a
	// generic server error carrying the revocation cause.
	if _, err := sess.Exchange(ctx, "op", nil); err == nil {
		t.Fatal("revoked credential still served on live session")
	} else if !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("post-CRL exchange failed for the wrong reason: %v", err)
	}
}

// TestTuningOptionsAloneDoNotEnforce: WithAuditSink/WithDecisionCache
// are observability/tuning, not enforcement — on their own they must
// not assemble a policy-less (deny-everything) pipeline.
func TestTuningOptionsAloneDoNotEnforce(t *testing.T) {
	bed := newAuthzBed(t)
	server, err := bed.env.NewServer(bed.host,
		gsi.WithAuditSink(bed.audit), gsi.WithDecisionCache(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := bed.env.NewClient(bed.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Exchange(context.Background(), ep.Addr(), "echo", nil); err != nil {
		t.Fatalf("tuning-only options turned the server deny-all: %v", err)
	}
}

// TestPipelineAnonymousDenied: anonymous peers never pass the pipeline.
func TestPipelineAnonymousDenied(t *testing.T) {
	bed := newAuthzBed(t)
	pl := bed.pipeline(t)
	d, err := pl.Authorize(context.Background(), gsi.Peer{Anonymous: true}, "r", "a")
	if err != nil {
		t.Fatal(err)
	}
	if d.Decision != gsi.Deny {
		t.Fatalf("anonymous peer: %+v", d)
	}
}

// TestLocalIntersectVODecisions is Figure 2's resource rule, decided by
// the one decider: a request carrying a CAS assertion is permitted only
// when local policy and the VO's both permit it; one without falls back
// to local policy alone; the VO's groups and roles reach local rules
// only through a verified assertion. Each row is decided three ways —
// with the decision cache off, cold with it on, and as a cache hit —
// and all three must give the same decision, components and reason.
func TestLocalIntersectVODecisions(t *testing.T) {
	voRead := gsi.Rule{ID: "vo-read", Effect: gsi.EffectPermit,
		Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"}}
	voGenerous := gsi.Rule{ID: "vo-generous", Effect: gsi.EffectPermit,
		Groups: []string{"researchers"}, Resources: []string{"*"}, Actions: []string{"delete"}}
	localRW := gsi.Rule{ID: "local-rw", Effect: gsi.EffectPermit,
		Subjects: []string{"*"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read", "write"}}
	groupGate := gsi.Rule{ID: "group-gate", Effect: gsi.EffectPermit,
		Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"}}
	roleGate := gsi.Rule{ID: "role-gate", Effect: gsi.EffectPermit,
		Roles: []string{"operator"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"}}
	const run1 = "data:/climate/run1"
	for _, tc := range []struct {
		name             string
		vo               []gsi.Rule // added to the VO before Alice's assertion is issued
		local            gsi.Rule
		bare             bool // Alice presents her end-entity chain, no assertion
		resource, action string
		want             gsi.AuthzDecision
	}{
		{"figure2_read", []gsi.Rule{voRead}, localRW, false, run1, "read",
			gsi.AuthzDecision{Decision: gsi.Permit, Local: gsi.Permit, VO: gsi.Permit, Reason: "permitted by local ∩ VO policy"}},
		{"figure2_write", []gsi.Rule{voRead}, localRW, false, run1, "write",
			gsi.AuthzDecision{Decision: gsi.Deny, Local: gsi.Permit, VO: gsi.NotApplicable, Reason: "intersection of local (permit) and VO (not-applicable) policy"}},
		{"resource_is_final_authority", []gsi.Rule{voRead, voGenerous}, localRW, false, run1, "delete",
			gsi.AuthzDecision{Decision: gsi.Deny, Local: gsi.NotApplicable, VO: gsi.Permit, Reason: "intersection of local (not-applicable) and VO (permit) policy"}},
		{"no_assertion_local_permits", nil, localRW, true, run1, "read",
			gsi.AuthzDecision{Decision: gsi.Permit, Local: gsi.Permit, VO: gsi.NotApplicable, Reason: "permitted by local policy alone"}},
		{"no_assertion_local_denies", nil, localRW, true, "data:/secret", "read",
			gsi.AuthzDecision{Decision: gsi.Deny, Local: gsi.NotApplicable, VO: gsi.NotApplicable, Reason: "no CAS assertion and local policy does not permit"}},
		{"vo_group_reaches_local_rule", []gsi.Rule{voRead}, groupGate, false, run1, "read",
			gsi.AuthzDecision{Decision: gsi.Permit, Local: gsi.Permit, VO: gsi.Permit, Reason: "permitted by local ∩ VO policy"}},
		{"vo_role_reaches_local_rule", []gsi.Rule{voRead}, roleGate, false, run1, "read",
			gsi.AuthzDecision{Decision: gsi.Permit, Local: gsi.Permit, VO: gsi.Permit, Reason: "permitted by local ∩ VO policy"}},
		{"bare_chain_has_no_vo_attributes", nil, groupGate, true, run1, "read",
			gsi.AuthzDecision{Decision: gsi.Deny, Local: gsi.NotApplicable, VO: gsi.NotApplicable, Reason: "no CAS assertion and local policy does not permit"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bed := newAuthzBed(t)
			for _, r := range tc.vo {
				bed.vo.AddPolicy(r)
			}
			chain := bed.alice.Chain
			if !tc.bare {
				cl, err := bed.env.NewClient(bed.alice)
				if err != nil {
					t.Fatal(err)
				}
				a, err := cl.RequestAssertion(context.Background(), bed.vo)
				if err != nil {
					t.Fatal(err)
				}
				cred, err := cl.EmbedAssertion(a)
				if err != nil {
					t.Fatal(err)
				}
				chain = cred.Chain
			}
			peer := gsi.Peer{Chain: chain}
			decide := func(pl *gsi.AuthorizationPipeline) gsi.AuthzDecision {
				t.Helper()
				d, err := pl.Authorize(context.Background(), peer, tc.resource, tc.action)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			local := gsi.NewPolicy(tc.local)
			pipeline := func(extra ...gsi.Option) *gsi.AuthorizationPipeline {
				pl, err := bed.env.NewAuthorizationPipeline(append([]gsi.Option{
					gsi.WithLocalPolicy(local), gsi.WithTrustedVO(bed.vo.Certificate())}, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return pl
			}
			uncached := decide(pipeline(gsi.WithDecisionCache(0)))
			cachedPL := pipeline()
			cold, hit := decide(cachedPL), decide(cachedPL)
			if cold.Cached || !hit.Cached {
				t.Fatalf("cache: cold decision cached=%v, repeat cached=%v", cold.Cached, hit.Cached)
			}
			for way, d := range map[string]gsi.AuthzDecision{"uncached": uncached, "cold": cold, "cache hit": hit} {
				if d.Decision != tc.want.Decision || d.Local != tc.want.Local || d.VO != tc.want.VO || d.Reason != tc.want.Reason {
					t.Errorf("%s: got %s (local %s, VO %s): %q; want %s (local %s, VO %s): %q", way,
						d.Decision, d.Local, d.VO, d.Reason, tc.want.Decision, tc.want.Local, tc.want.VO, tc.want.Reason)
				}
			}
		})
	}
}

// TestDistrustVOStopsReplica: once a VO is distrusted, its replicated
// policy bundle stops vouching for members who arrive without an
// assertion, exactly as its assertions stop being honored. A local rule
// keyed on the VO's group then no longer matches, so the bare member is
// denied.
func TestDistrustVOStopsReplica(t *testing.T) {
	bed := newAuthzBed(t)
	pl, err := bed.env.NewAuthorizationPipeline(
		gsi.WithLocalPolicy(gsi.NewPolicy(gsi.Rule{
			ID: "researchers", Effect: gsi.EffectPermit,
			Groups: []string{"researchers"}, Resources: []string{"ogsa:gsi.exchange"}, Actions: []string{"*"},
		})),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{Endpoints: []string{"unused:0"}, Cert: bed.vo.Certificate()}),
	)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := bed.vo.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Replica().Apply(bundle); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bare := gsi.Peer{Chain: bed.alice.Chain}
	if d, err := pl.Authorize(ctx, bare, "ogsa:gsi.exchange", "echo"); err != nil || d.Decision != gsi.Permit {
		t.Fatalf("trusted VO's replica: %+v %v", d, err)
	}

	pl.DistrustVO(bed.vo.VO())
	d, err := pl.Authorize(ctx, bare, "ogsa:gsi.exchange", "echo")
	if err != nil {
		t.Fatal(err)
	}
	if d.Decision != gsi.Deny || d.VO != gsi.NotApplicable || !d.VOName.Empty() {
		t.Fatalf("distrusted VO's replica still vouches for a bare member: %+v", d)
	}
	if d, _ := pl.Authorize(ctx, gsi.Peer{Chain: bed.aliceVO.Chain}, "ogsa:gsi.exchange", "echo"); d.Decision != gsi.Deny || !strings.Contains(d.Reason, "untrusted VO") {
		t.Fatalf("distrusted VO's assertion: %+v", d)
	}
}
