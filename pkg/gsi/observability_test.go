// Observability & control-plane tests (PR 6): hot reload of trust and
// policy files under live traffic on both transports, the gsi.__admin
// port type behind the authorization pipeline, and the allocation cost
// of instrumenting the pooled exchange hot path.
package gsi_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// reloadBundle is the on-disk configuration a reload test watches:
// the same four files WithReload names, seeded from an authzBed.
type reloadBundle struct {
	roots, crls, gridmap, policy string
}

func newReloadBundle(t *testing.T, bed *authzBed, policy []byte) reloadBundle {
	t.Helper()
	dir := t.TempDir()
	b := reloadBundle{
		roots:   filepath.Join(dir, "roots"),
		crls:    filepath.Join(dir, "crls"),
		gridmap: filepath.Join(dir, "gridmap"),
		policy:  filepath.Join(dir, "policy.json"),
	}
	b.write(t, b.roots, gridcert.EncodeChain([]*gsi.Certificate{bed.ca.Certificate()}))
	b.write(t, b.crls, gridcert.EncodeCRLSet(nil))
	b.write(t, b.gridmap, []byte(fmt.Sprintf("%q alice\n%q bob\n",
		bed.alice.Identity(), bed.bob.Identity())))
	b.write(t, b.policy, policy)
	return b
}

func (b reloadBundle) write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func (b reloadBundle) config() gsi.ReloadConfig {
	return gsi.ReloadConfig{
		TrustRoots: b.roots,
		CRLs:       b.crls,
		GridMap:    b.gridmap,
		Policy:     b.policy,
		Interval:   25 * time.Millisecond,
	}
}

func encodePolicy(t *testing.T, rules ...gsi.Rule) []byte {
	t.Helper()
	data, err := gsi.NewPolicy(rules...).EncodePolicyJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHotReloadUnderTraffic(t *testing.T) {
	t.Run("GT2", func(t *testing.T) { testHotReloadUnderTraffic(t, gsi.TransportGT2()) })
	t.Run("GT3", func(t *testing.T) { testHotReloadUnderTraffic(t, gsi.TransportGT3()) })
}

// testHotReloadUnderTraffic rewrites every watched file while clients
// hammer the endpoint, then corrupts them. The invariants are the
// fail-closed contract: Alice (permitted by every policy variant) never
// sees a denial or a handshake failure mid-swap, Bob (permitted by no
// variant) never gets through, and a corrupt file bumps the failure
// counters while the previous generation keeps serving.
func testHotReloadUnderTraffic(t *testing.T, transport gsi.Transport) {
	bed := newAuthzBed(t)
	// Map Bob too, so the local policy — the thing this test swaps — is
	// the only leg standing between him and the handler.
	bed.gridmap.Add(bed.bob.Identity(), "bob")

	aliceOnly := gsi.Rule{
		ID:        "alice-only",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{bed.alice.Identity().String()},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	}
	decoy := gsi.Rule{
		ID:        "carol-decoy",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Carol"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	}
	if err := bed.local.Replace([]gsi.Rule{aliceOnly}); err != nil {
		t.Fatal(err)
	}
	variantA := encodePolicy(t, aliceOnly)
	variantB := encodePolicy(t, aliceOnly, decoy)
	bundle := newReloadBundle(t, bed, variantA)
	validRoots := gridcert.EncodeChain([]*gsi.Certificate{bed.ca.Certificate()})

	reg := gsi.NewMetricsRegistry()
	server := bed.server(t, gsi.WithTransport(transport), gsi.WithMetrics(reg), gsi.WithReload(bundle.config()))
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	r := server.Reloader()
	if r == nil {
		t.Fatal("Server.Reloader() = nil with WithReload active")
	}

	// Traffic: two identities, opposite invariants, full handshake per
	// exchange (no pool) so trust-store swaps are on every op's path.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var aliceOps, bobOps atomic.Uint64
	worker := func(cred *gsi.Credential, wantDenied bool, ops *atomic.Uint64) {
		defer wg.Done()
		client, err := bed.env.NewClient(cred, gsi.WithTransport(transport))
		if err != nil {
			t.Error(err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("tick"))
			ops.Add(1)
			if wantDenied {
				if !errors.Is(err, gsi.ErrUnauthorized) {
					t.Errorf("Bob mid-reload: got %v, want ErrUnauthorized (fail-open?)", err)
					return
				}
			} else if err != nil {
				t.Errorf("Alice mid-reload: %v", err)
				return
			}
		}
	}
	wg.Add(4)
	go worker(bed.alice, false, &aliceOps)
	go worker(bed.alice, false, &aliceOps)
	go worker(bed.bob, true, &bobOps)
	go worker(bed.bob, true, &bobOps)

	// Swap every watched file repeatedly under that load. Forced Reload
	// calls make each round deterministic; the 25ms poller runs too.
	for i := 0; i < 15; i++ {
		variant := variantA
		if i%2 == 1 {
			variant = variantB
		}
		bundle.write(t, bundle.policy, variant)
		bundle.write(t, bundle.roots, validRoots)
		if err := r.Reload(); err != nil {
			t.Fatalf("reload round %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	clean := r.Stats()
	if clean.Reloads == 0 {
		t.Fatal("no successful reloads recorded")
	}

	// Corrupt writes: half-written JSON, garbage roots, and an empty
	// chain (the never-drop-to-empty-trust case). Each must fail the
	// reload and leave the previous generation serving.
	bundle.write(t, bundle.policy, []byte(`{"combining":"deny-overrides","rules":[{"id":`))
	if err := r.Reload(); err == nil {
		t.Fatal("corrupt policy applied cleanly")
	}
	bundle.write(t, bundle.roots, []byte("not a chain"))
	if err := r.Reload(); err == nil {
		t.Fatal("garbage trust roots applied cleanly")
	}
	bundle.write(t, bundle.roots, gridcert.EncodeChain(nil))
	if err := r.Reload(); err == nil {
		t.Fatal("empty trust-root set applied cleanly")
	}
	st := r.Stats()
	if st.Failures <= clean.Failures {
		t.Fatalf("Failures = %d after corrupt writes, want > %d", st.Failures, clean.Failures)
	}
	sick := map[string]bool{}
	for _, src := range r.Status() {
		sick[src.Name] = !src.Healthy
	}
	if !sick["policy"] || !sick["trust-roots"] {
		t.Fatalf("unhealthy sources = %v, want policy and trust-roots sick", sick)
	}
	if sick["gridmap"] || sick["crls"] {
		t.Fatalf("unhealthy sources = %v, gridmap/crls should have stayed healthy", sick)
	}

	// The previous generation is still live: a fresh client (new
	// handshake, so the trust store is exercised, not a cached session)
	// gets Alice through and keeps Bob out.
	freshAlice, err := bed.env.NewClient(bed.alice, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshAlice.Exchange(ctx, ep.Addr(), "echo", []byte("post-corrupt")); err != nil {
		t.Fatalf("Alice after corrupt write: %v (old generation not kept live)", err)
	}
	freshBob, err := bed.env.NewClient(bed.bob, gsi.WithTransport(transport))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshBob.Exchange(ctx, ep.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("Bob after corrupt write: got %v, want ErrUnauthorized", err)
	}

	// Restoring valid files heals every source.
	bundle.write(t, bundle.policy, variantA)
	bundle.write(t, bundle.roots, validRoots)
	if err := r.Reload(); err != nil {
		t.Fatalf("reload after restore: %v", err)
	}
	for _, src := range r.Status() {
		if !src.Healthy {
			t.Fatalf("source %s still unhealthy after restore: %s", src.Name, src.Error)
		}
	}

	close(stop)
	wg.Wait()
	if aliceOps.Load() == 0 || bobOps.Load() == 0 {
		t.Fatalf("no traffic overlapped the reloads (alice=%d bob=%d)", aliceOps.Load(), bobOps.Load())
	}

	// The registry saw it all: the server's reload series exist and the
	// failure counter carries the corrupt writes.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for _, family := range []string{"gsi_reload_total", "gsi_reload_failures_total", "gsi_handshake_seconds"} {
		if !strings.Contains(exposition, family) {
			t.Fatalf("exposition missing %s:\n%s", family, exposition)
		}
	}
}

// TestAdminSurfaceAuthz drives every gsi.__admin op through a real GT3
// secure conversation and the full authorization pipeline: the admin
// identity (permitted by local policy) gets stats, metrics, drain, and
// typed errors for unconfigured subsystems; an authenticated peer
// without a permit — or with a VO-restricted proxy — is denied.
func TestAdminSurfaceAuthz(t *testing.T) {
	bed := newAuthzBed(t)
	bed.local.Add(gsi.Rule{
		ID:        "admin-ops",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{bed.alice.Identity().String()},
		Resources: []string{"ogsa:" + ogsa.AdminHandle},
		Actions:   []string{"*"},
	})
	pool := gsi.NewSessionPool()
	defer pool.Close()
	reg := gsi.NewMetricsRegistry()
	server := bed.server(t, gsi.WithTransport(gsi.TransportGT3()), gsi.WithMetrics(reg), gsi.WithAdmin(), gsi.WithAdminPool(pool))
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	admin, err := bed.env.NewClient(bed.alice, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}

	out, err := admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil)
	if err != nil {
		t.Fatalf("Stats as admin: %v", err)
	}
	var snap struct {
		Identity string           `json:"identity"`
		Pool     *json.RawMessage `json:"pool"`
		Reload   *json.RawMessage `json:"reload"`
	}
	if err := json.Unmarshal(out, &snap); err != nil {
		t.Fatalf("Stats is not JSON: %v\n%s", err, out)
	}
	if snap.Identity != bed.host.Identity().String() {
		t.Fatalf("Stats identity = %q, want %q", snap.Identity, bed.host.Identity())
	}
	if snap.Pool == nil {
		t.Fatal("Stats missing pool section despite WithAdminPool")
	}
	if snap.Reload != nil {
		t.Fatal("Stats has a reload section but the server has no WithReload")
	}

	out, err = admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpMetrics, nil)
	if err != nil {
		t.Fatalf("Metrics as admin: %v", err)
	}
	if !strings.Contains(string(out), "# TYPE") ||
		!strings.Contains(string(out), "gsi_authz_cache_hits_total") {
		t.Fatalf("Metrics scrape missing expected series:\n%s", out)
	}

	out, err = admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpDrain, nil)
	if err != nil {
		t.Fatalf("Drain as admin: %v", err)
	}
	if string(out) != `{"drained":0}` {
		t.Fatalf("Drain = %s, want zero idle sessions drained", out)
	}

	// Unconfigured subsystems and bad arguments come back as faults,
	// not denials: retirement of an unknown fingerprint and a forced
	// reload on a server without WithReload.
	if _, err := admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpRetire, []byte("deadbeef")); err == nil {
		t.Fatal("Retire of unknown fingerprint succeeded")
	} else if errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("Retire of unknown fingerprint misclassified as denial: %v", err)
	}
	if _, err := admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpReload, nil); err == nil {
		t.Fatal("Reload succeeded on a server without WithReload")
	}

	// Bob authenticates fine but holds no permit for the admin
	// resource: denied by the pipeline before the backend runs.
	bob, err := bed.env.NewClient(bed.bob, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("Stats as Bob: got %v, want ErrUnauthorized", err)
	}

	// Alice's VO-restricted proxy carries an assertion scoped to
	// gsi.exchange — the VO leg refuses to extend it to the admin
	// resource even though local policy would permit her.
	restricted, err := bed.env.NewClient(bed.aliceVO, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restricted.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpStats, nil); !errors.Is(err, gsi.ErrUnauthorized) {
		t.Fatalf("Stats with VO-restricted proxy: got %v, want ErrUnauthorized", err)
	}
}

// TestNewServerRefusesIncoherentOptions pins where contradictory server
// options are refused: at NewServer, with the reason, before any
// endpoint exists — never as a Serve-time error or a silently
// admin-less, feed-less or listener-less endpoint.
func TestNewServerRefusesIncoherentOptions(t *testing.T) {
	bed := newAuthzBed(t)
	gt3 := gsi.WithTransport(gsi.TransportGT3())
	for _, tc := range []struct {
		name string
		opts []gsi.Option
		want string // substring of the refusal; "" = accepted
	}{
		{"admin on GT2", []gsi.Option{gsi.WithLocalPolicy(bed.local), gsi.WithAdmin()}, "GT3"},
		{"admin without a pipeline", []gsi.Option{gt3, gsi.WithAdmin()}, "authorization pipeline"},
		{"CAS publisher on GT2", []gsi.Option{gsi.WithLocalPolicy(bed.local), gsi.WithCASPublisher(bed.vo)}, "GT3"},
		{"CAS publisher without a pipeline", []gsi.Option{gt3, gsi.WithCASPublisher(bed.vo)}, "authorization pipeline"},
		{"stream handler on GT3", []gsi.Option{gt3, gsi.WithStreamHandler(func(context.Context, gsi.Peer, string, gsi.Stream) error { return nil })}, "GT2"},
		{"metrics listener without a registry", []gsi.Option{gsi.WithMetricsListener("127.0.0.1:0")}, "WithMetrics"},
		{"all of it, coherently", []gsi.Option{gt3, gsi.WithLocalPolicy(bed.local), gsi.WithAdmin(),
			gsi.WithCASPublisher(bed.vo), gsi.WithMetrics(gsi.NewMetricsRegistry()), gsi.WithMetricsListener("127.0.0.1:0")}, ""},
	} {
		_, err := bed.env.NewServer(bed.host, tc.opts...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}

// TestSignatureMetrics: the trust store's signature counters are the
// environment's series, so a server and any number of clients of one
// environment land the same four in a shared registry, and a scrape reads
// what the store counted — a user's second proxy costs one signature
// check, not a chain's worth; a memo nowhere near its bound has rotated
// no generation.
func TestSignatureMetrics(t *testing.T) {
	bed := newAuthzBed(t)
	reg := gsi.NewMetricsRegistry()
	server, err := bed.env.NewServer(bed.host, gsi.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) { return body, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	user, err := bed.env.NewClient(bed.alice, gsi.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		px, err := user.Proxy(gsi.ProxyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		client, err := bed.env.NewClient(px, gsi.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := bed.env.Trust().SignatureStats()
	// The second exchange recognises the host (at the client) and the user
	// (at the server) instead of checking them again.
	if st.Checks != 4 || st.MemoHits != 2 || st.Entries != 4 || st.Rotations != 0 {
		t.Fatalf("host, user and two proxies: %+v, want 4 checks, 2 memo hits, 4 entries, no rotation", st)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]uint64{
		"gsi_cert_signature_checks_total": st.Checks, "gsi_cert_signature_memo_hits_total": st.MemoHits,
		"gsi_cert_signature_memo_entries": uint64(st.Entries), "gsi_cert_signature_memo_rotations_total": st.Rotations,
	} {
		var got []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, series+"{") {
				got = append(got, line)
			}
		}
		if len(got) != 1 || !strings.HasPrefix(got[0], series+`{id="env-`) || !strings.HasSuffix(got[0], fmt.Sprintf(`"} %d`, want)) {
			t.Errorf("scrape has %q, want one %s series of the environment reading %d", got, series, want)
		}
	}
}

// TestReloadRekeyedCA: a CA re-keyed under its old name has its roots
// file and its CRL file swapped together. The new key's CRL number 1 is
// not "already current" against the number the old key reached — the
// reload's applier passes ErrCRLStale over in silence — so the
// certificate the new CA revoked is refused after the one reload.
func TestReloadRekeyedCA(t *testing.T) {
	bed := newAuthzBed(t)
	dir := t.TempDir()
	cfg := gsi.ReloadConfig{TrustRoots: filepath.Join(dir, "roots"), CRLs: filepath.Join(dir, "crls"), Interval: time.Hour}
	write := func(ca *gsi.CA, crls ...*gridcert.CRL) {
		t.Helper()
		for path, data := range map[string][]byte{
			cfg.TrustRoots: gridcert.EncodeChain([]*gsi.Certificate{ca.Certificate()}),
			cfg.CRLs:       gridcert.EncodeCRLSet(crls),
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var oldCRL *gridcert.CRL
	for i := 0; i < 3; i++ { // the old key's list has reached number 3
		var err error
		if oldCRL, err = bed.ca.CRL(); err != nil {
			t.Fatal(err)
		}
	}
	write(bed.ca, oldCRL)

	server, err := bed.env.NewServer(bed.host, gsi.WithReload(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) { return body, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := server.Reloader().Reload(); err != nil {
		t.Fatal(err)
	}

	rekeyed, err := gsi.NewCA(bed.ca.Certificate().Subject.String(), 96*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := rekeyed.NewEntity(gsi.MustParseName("/O=Grid/CN=Mallory"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := rekeyed.Revoke(mallory.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	crl, err := rekeyed.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if crl.Number >= oldCRL.Number {
		t.Fatalf("new CA's CRL is number %d, the old one's %d: the test needs it lower", crl.Number, oldCRL.Number)
	}
	write(rekeyed, crl)
	if err := server.Reloader().Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := bed.env.Trust().Verify(mallory.Chain, gridcert.VerifyOptions{}); !errors.Is(err, gridcert.ErrRevoked) {
		t.Fatalf("certificate the re-keyed CA revoked: Verify = %v, want ErrRevoked", err)
	}
}

// TestCASSyncCostIsObservable: what a replica's last pull cost, and in
// which shape it was answered, is readable from the product — the
// CASStatus JSON gsictl cas-status prints and one gauge — so the window
// in which a restarted server vouches for nobody (its first full sync)
// does not need the benchmark to be seen.
func TestCASSyncCostIsObservable(t *testing.T) {
	c := newCASSyncBed(t)
	bed := c.bed
	ctx := context.Background()
	bed.local.Add(gsi.Rule{
		ID:        "admin-ops",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{bed.bob.Identity().String()},
		Resources: []string{"ogsa:" + ogsa.AdminHandle},
		Actions:   []string{"*"},
	})
	bed.gridmap.Add(bed.bob.Identity(), "bob")

	// A second resource server of the same identity that pulls once at
	// start and then only when told to, so each status below is the
	// status of a known pull.
	rsCred, err := bed.ca.NewHostEntity(gsi.MustParseName("/O=Grid/CN=resource node"), 72*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg := gsi.NewMetricsRegistry()
	resource, err := bed.env.NewServer(rsCred,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{Endpoints: []string{c.primary.Addr()}, Cert: bed.vo.Certificate(), Interval: time.Hour}),
		gsi.WithLocalPolicy(bed.local), gsi.WithGridMap(bed.gridmap),
		gsi.WithAdmin(), gsi.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := resource.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) { return body, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	deadline := time.Now().Add(10 * time.Second)
	for resource.CASSyncStatus().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("first sync never landed: %+v", resource.CASSyncStatus())
		}
		time.Sleep(5 * time.Millisecond)
	}
	first := resource.CASSyncStatus()
	if first.LastReply != "full" || first.LastPullMillis <= 0 || first.FullSyncs != 1 || first.Version < 1 {
		t.Fatalf("after the first sync: %+v", first)
	}
	lastSyncGauge := func() float64 {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "gsi_cas_last_sync_seconds{") {
				var v float64
				if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("no gsi_cas_last_sync_seconds series in:\n%s", sb.String())
		return 0
	}
	if got, want := lastSyncGauge(), first.LastPullMillis/1e3; got != want {
		t.Fatalf("gsi_cas_last_sync_seconds = %v, status says %v s", got, want)
	}

	// The roll changes; a forced sync is answered with a delta, and the
	// admin op's JSON — what gsictl cas-status prints — says so.
	bed.vo.AddMember(gsi.MustParseName("/O=Grid/CN=Carol"), "researchers")
	admin, err := bed.env.NewClient(bed.bob, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpCASSync, nil); err != nil {
		t.Fatalf("CASSync: %v", err)
	}
	out, err := admin.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpCASStatus, nil)
	if err != nil {
		t.Fatalf("CASStatus: %v", err)
	}
	var shown struct {
		LastPullMillis *float64 `json:"last_pull_ms"`
		LastReply      string   `json:"last_reply"`
		DeltaSyncs     uint64   `json:"delta_syncs"`
	}
	if err := json.Unmarshal(out, &shown); err != nil {
		t.Fatalf("CASStatus is not JSON: %v\n%s", err, out)
	}
	if shown.LastReply != "delta" || shown.LastPullMillis == nil || *shown.LastPullMillis <= 0 || shown.DeltaSyncs != 1 {
		t.Fatalf("after the forced delta sync, CASStatus shows:\n%s", out)
	}
	if got := lastSyncGauge(); got != *shown.LastPullMillis/1e3 {
		t.Fatalf("gsi_cas_last_sync_seconds = %v after the delta, status says %v ms", got, *shown.LastPullMillis)
	}
}
