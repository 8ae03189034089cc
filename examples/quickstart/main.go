// Quickstart: the core GSI flow through the public handle-based API —
// create a CA, build an Environment of its trust roots, issue a user
// and a service, single sign-on with a proxy certificate, mutual
// authentication under a context.Context, protected messaging, remote
// delegation, and on to pooling, authorization, observability, the
// durable trust plane, CAS sync, session guards and CRL revocation.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. A certificate authority and an Environment trusting it.
	// Trust is unilateral: installing the root is a single-party act.
	authority, err := gsi.NewCA("/O=Grid/CN=Quickstart CA", 365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("1. CA created:", authority.Name())

	// 2. Long-term credentials for a user and a service host.
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 7*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	gridftp, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host gridftp.example.org"), 7*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2. issued:", alice.Leaf().Subject, "and", gridftp.Leaf().Subject)

	// 3. Single sign-on: Alice's Client mints a 12-hour proxy. The proxy
	// has its own key, so her long-term key can stay offline.
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	aliceProxy, err := aliceClient.Proxy(gsi.ProxyOptions{Lifetime: 12 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3. proxy created:", aliceProxy.Leaf().Subject)

	// 4. Mutual authentication between the proxy and the service, under
	// a context (a deadline here would abort the handshake mid-flight).
	proxyClient, err := env.NewClient(aliceProxy)
	if err != nil {
		log.Fatal(err)
	}
	ictx, actx, err := proxyClient.Establish(ctx, gsi.ContextConfig{
		Credential: gridftp,
		TrustStore: env.Trust(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4. mutual auth: service sees %q (through the proxy), client sees %q\n",
		actx.Peer().Identity, ictx.Peer().Identity)

	// 5. Protected messages over the context.
	wrapped, err := ictx.Wrap([]byte("GET /data/run1"))
	if err != nil {
		log.Fatal(err)
	}
	plain, err := actx.Unwrap(wrapped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5. protected message delivered: %q\n", plain)

	// 6. Remote delegation: the service obtains a proxy to act as Alice
	// (e.g. to fetch her data from a third service). Only the public key
	// crosses the wire.
	delegatee, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		log.Fatal(err)
	}
	reply, err := proxy.HandleDelegation(aliceProxy, req, proxy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	delegated, err := delegatee.Accept(reply)
	if err != nil {
		log.Fatal(err)
	}
	info, err := env.Trust().Verify(delegated.Chain, gsi.VerifyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("6. delegated credential validates: identity=%s depth=%d\n",
		info.Identity, info.ProxyDepth)

	// 7. Session pooling: a pooled client pays the public-key handshake
	// once per connection, not once per call. WithSessionPool(nil) gives
	// the client a private pool; build one with NewSessionPool to share
	// it between clients. Close drains the pool.
	server, err := env.NewServer(gridftp)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	pooled, err := env.NewClient(aliceProxy, gsi.WithSessionPool(nil))
	if err != nil {
		log.Fatal(err)
	}
	defer pooled.Pool().Close()
	for i := 0; i < 5; i++ {
		if _, err := pooled.Exchange(ctx, ep.Addr(), "echo", []byte("req")); err != nil {
			log.Fatal(err)
		}
	}
	st := pooled.Pool().Stats()
	fmt.Printf("7. pooled exchanges: 5 calls, %d handshake(s), %d pool hit(s)\n",
		st.Dials, st.Hits)

	// 8. Credential lifecycle: a CredentialManager keeps the proxy alive
	// past its own expiry — ahead of a configurable horizon it obtains a
	// successor (here by re-delegating below Alice's credential; a remote
	// delegation endpoint is the other source) and a managed, pooled
	// client rolls onto it with no dropped traffic:
	// rotation drains the old sessions and new calls handshake under the
	// successor. cm.Start() would do this continuously in the background.
	cm, err := env.NewCredentialManager(aliceProxy,
		gsi.DelegationRenewal(alice, gsi.ProxyOptions{Lifetime: 12 * time.Hour}),
		gsi.WithRenewalHorizon(time.Hour))
	if err != nil {
		log.Fatal(err)
	}
	defer cm.Close()
	managed, err := env.NewClient(nil, gsi.WithCredentialManager(cm), gsi.WithSessionPool(nil))
	if err != nil {
		log.Fatal(err)
	}
	defer managed.Pool().Close()
	if _, err := managed.Exchange(ctx, ep.Addr(), "echo", []byte("before")); err != nil {
		log.Fatal(err)
	}
	if _, err := cm.Renew(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := managed.Exchange(ctx, ep.Addr(), "echo", []byte("after")); err != nil {
		log.Fatal(err)
	}
	ms := managed.Pool().Stats()
	fmt.Printf("8. rotated credentials mid-traffic: %d rotation(s), %d session(s) retired, 0 failures\n",
		cm.Stats().Rotations, ms.Retired)

	// 9. Authorization pipeline: a server built with WithLocalPolicy /
	// WithGridMap (and WithTrustedVO for community assertions) gates
	// every exchange through the chain-aware pipeline — local ∩ VO
	// policy, grid-mapfile mapping surfaced as Peer.LocalAccount, a
	// decision cache on the hot path, and every outcome auditable via
	// WithAuditSink. Here local policy admits Alice by DN and the
	// gridmap names her local account.
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "allow-alice",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{alice.Identity().String()},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	gridmap := gsi.NewGridMap()
	gridmap.Add(alice.Identity(), "alice")
	authzServer, err := env.NewServer(gridftp,
		gsi.WithLocalPolicy(local), gsi.WithGridMap(gridmap))
	if err != nil {
		log.Fatal(err)
	}
	authzEP, err := authzServer.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return []byte(peer.LocalAccount), nil
		})
	if err != nil {
		log.Fatal(err)
	}
	defer authzEP.Close()
	account, err := pooled.Exchange(ctx, authzEP.Addr(), "whoami", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("9. authorized exchange ran as local account %q (policy + gridmap enforced in the facade)\n", account)

	// 10. Streaming: OpenStream moves bulk data as 256 KiB records
	// through the pooled record layer — no 16 MiB message cap, one
	// authorization per stream, and the pooled session returns for
	// reuse when the stream closes cleanly. The server installs a
	// StreamHandler; here it counts an uploaded "file" larger than any
	// single message the old path could carry.
	var received int64
	streamServer, err := env.NewServer(gridftp,
		gsi.WithStreamHandler(func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
			n, err := io.Copy(io.Discard, st)
			atomic.StoreInt64(&received, n)
			return err
		}))
	if err != nil {
		log.Fatal(err)
	}
	streamEP, err := streamServer.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		log.Fatal(err)
	}
	defer streamEP.Close()
	up, err := pooled.OpenStream(ctx, streamEP.Addr(), "upload:/exp/large")
	if err != nil {
		log.Fatal(err)
	}
	large := make([]byte, 20<<20) // beyond the old whole-message cap
	if _, err := up.Write(large); err != nil {
		log.Fatal(err)
	}
	if err := up.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("10. streamed %d MiB upload in 256 KiB records (old cap was 16 MiB per message)\n",
		atomic.LoadInt64(&received)>>20)

	// 11. Observability & control plane: WithMetrics lands every
	// subsystem's counters in a Prometheus-format registry (zero cost
	// on the hot path; WithMetricsListener would serve it over HTTP),
	// and WithReload re-reads policy/trust files live through the
	// generation-counted swaps — fail-closed, so a corrupt file keeps
	// the previous configuration serving. Here the policy file flips to
	// deny-all and the very next exchange is refused, no restart.
	dir, err := os.MkdirTemp("", "quickstart-reload")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	policyPath := filepath.Join(dir, "policy.json")
	policyJSON, err := local.EncodePolicyJSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(policyPath, policyJSON, 0o644); err != nil {
		log.Fatal(err)
	}
	reg := gsi.NewMetricsRegistry()
	obsServer, err := env.NewServer(gridftp,
		gsi.WithLocalPolicy(local), gsi.WithGridMap(gridmap),
		gsi.WithMetrics(reg),
		gsi.WithReload(gsi.ReloadConfig{Policy: policyPath}))
	if err != nil {
		log.Fatal(err)
	}
	obsEP, err := obsServer.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		log.Fatal(err)
	}
	defer obsEP.Close()
	if _, err := pooled.Exchange(ctx, obsEP.Addr(), "echo", []byte("permitted")); err != nil {
		log.Fatal(err)
	}
	denyAll, err := gsi.NewPolicy(gsi.Rule{
		ID:        "deny-all",
		Effect:    gsi.EffectDeny,
		Subjects:  []string{"*"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
	}).EncodePolicyJSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(policyPath, denyAll, 0o644); err != nil {
		log.Fatal(err)
	}
	if err := obsServer.Reloader().Reload(); err != nil {
		log.Fatal(err)
	}
	_, err = pooled.Exchange(ctx, obsEP.Addr(), "echo", []byte("now denied"))
	if !errors.Is(err, gsi.ErrUnauthorized) {
		log.Fatalf("expected denial after live policy swap, got %v", err)
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		log.Fatal(err)
	}
	series := 0
	for _, line := range strings.Split(scrape.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	fmt.Printf("11. live policy swap denied the next call (%d reload(s)); registry exposes %d series\n",
		obsServer.Reloader().Stats().Reloads, series)

	// 12. End-to-end tracing: WithTracing on both ends gives every
	// exchange one causally linked trace whose 25-byte context crosses
	// the wire (GT2 framing trailer, GT3 SOAP header), so the client's
	// root span and the server's exchange/authz spans share a trace id.
	// The bounded flight recorder answers "why was that call slow"
	// live, slowest-first — `gsictl traces` runs this exact query over
	// the secure admin channel. Here one deliberately slow call stands
	// out of a small burst and its trace is followed across both sides.
	// (Step 11's live swap left `local` deny-all; trace under a fresh permit.)
	tracePolicy := gsi.NewPolicy(gsi.Rule{
		ID:        "allow-alice-traced",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{alice.Identity().String()},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	traceServer, err := env.NewServer(gridftp,
		gsi.WithLocalPolicy(tracePolicy), gsi.WithGridMap(gridmap),
		gsi.WithTracing())
	if err != nil {
		log.Fatal(err)
	}
	traceEP, err := traceServer.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			if op == "slow" {
				time.Sleep(150 * time.Millisecond) // the call an operator would hunt
			}
			return body, nil
		})
	if err != nil {
		log.Fatal(err)
	}
	defer traceEP.Close()
	traced, err := env.NewClient(aliceProxy, gsi.WithSessionPool(nil), gsi.WithTracing())
	if err != nil {
		log.Fatal(err)
	}
	defer traced.Pool().Close()
	for _, op := range []string{"echo", "echo", "echo", "slow"} {
		if _, err := traced.Exchange(ctx, traceEP.Addr(), op, []byte("traced")); err != nil {
			log.Fatal(err)
		}
	}
	slowest := traceServer.Tracer().Recorder().Snapshot(gsi.TraceQuery{Op: "server.exchange", N: 1})[0]
	tid := slowest.TraceID.String()
	clientSide := traced.Tracer().Recorder().Snapshot(gsi.TraceQuery{TraceID: tid, N: 20})
	serverSide := traceServer.Tracer().Recorder().Snapshot(gsi.TraceQuery{TraceID: tid, N: 20})
	fmt.Printf("12. slowest server span: %s %.0fms peer=%s — trace %s… links %d client + %d server span(s) across the wire\n",
		slowest.Op, float64(slowest.Duration.Milliseconds()), slowest.Peer, tid[:8], len(clientSide), len(serverSide))

	// 13. The durable trust plane: policy, gridmap, and the audit hash
	// chain journal through one write-ahead log (fsync before apply), so
	// a server that dies mid-churn restarts with the exact generations it
	// crashed with — the decision cache re-warms instead of stampeding,
	// and the audit trail proves itself intact. Here the first handle is
	// simply abandoned mid-churn (the crash: no Close, no shutdown), and
	// reopening the directory replays the journal.
	stateDir, err := os.MkdirTemp("", "gsi-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	durable, err := gsi.OpenDurableState(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := durable.Policy().AddChecked(gsi.Rule{
			ID:        fmt.Sprintf("churn-%d", i),
			Effect:    gsi.EffectPermit,
			Subjects:  []string{fmt.Sprintf("/O=Grid/CN=user%d", i)},
			Resources: []string{"data:/exp/*"},
			Actions:   []string{"read"},
		}); err != nil {
			log.Fatal(err)
		}
		durable.Audit().Record("quickstart", fmt.Sprintf("/O=Grid/CN=user%d", i), "policy churn")
	}
	if err := durable.GridMap().AddChecked(alice.Identity(), "alice"); err != nil {
		log.Fatal(err)
	}
	pGen, gGen := durable.Policy().Generation(), durable.GridMap().Generation()
	durable = nil // the crash: the handle is gone, only the journal survives

	recovered, err := gsi.OpenDurableState(stateDir)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Policy().Generation() != pGen || recovered.GridMap().Generation() != gGen {
		log.Fatalf("restart moved generations: %d/%d, want %d/%d",
			recovered.Policy().Generation(), recovered.GridMap().Generation(), pGen, gGen)
	}
	if bad := recovered.Audit().VerifyChain(); bad != -1 {
		log.Fatalf("audit chain broken at %d after restart", bad)
	}
	fmt.Printf("13. killed mid-churn and restarted: policy/gridmap generations %d/%d identical, %d-event audit chain verifies\n",
		pGen, gGen, recovered.Audit().Len())

	// 14. The control-plane fast path: every sync is one pull carrying
	// the replica's version. Once a resource server holds a VO's full
	// signed bundle, membership churn comes back as signed DELTAS — only
	// the mutations since that version, verified against the same VO key
	// — and the publisher answers with the full bundle whenever its delta
	// log does not cover the version. `gsictl cas-status` reads the same
	// status shown here over the secure admin channel (and `gsictl
	// compact` folds step 13's journal on demand).
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=ClimateVO CAS"), 7*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	vo := gsi.NewCASServer(voCred)
	for i := 0; i < 200; i++ {
		vo.AddMember(gsi.MustParseName(fmt.Sprintf("/O=Grid/CN=member %03d", i)), "researchers")
	}
	vo.AddPolicy(gsi.Rule{
		ID:        "vo-read",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})
	pubCred, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=cas publisher"), 7*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	rsCred, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=cas resource"), 7*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	echo := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	}
	publisher, err := env.NewServer(pubCred,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASPublisher(vo),
		gsi.WithLocalPolicy(gsi.NewPolicy(gsi.Rule{
			ID:        "bundle-readers",
			Effect:    gsi.EffectPermit,
			Subjects:  []string{rsCred.Identity().String()},
			Resources: []string{"ogsa:gsi.__cas.sync"},
			Actions:   []string{"*"},
		})))
	if err != nil {
		log.Fatal(err)
	}
	pubEP, err := publisher.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		log.Fatal(err)
	}
	defer pubEP.Close()
	casResource, err := env.NewServer(rsCred,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{
			Endpoints: []string{pubEP.Addr()},
			Cert:      vo.Certificate(),
			Interval:  20 * time.Millisecond,
		}))
	if err != nil {
		log.Fatal(err)
	}
	rsCASEP, err := casResource.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		log.Fatal(err)
	}
	defer rsCASEP.Close()
	waitCAS := func(what string, cond func(gsi.CASSyncStatus) bool) gsi.CASSyncStatus {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := casResource.CASSyncStatus()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				log.Fatalf("timed out waiting for %s; status %+v", what, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitCAS("initial full bundle", func(st gsi.CASSyncStatus) bool { return st.Version >= 1 })
	for i := 0; i < 5; i++ { // membership churn: five version steps, one small delta
		vo.AddMember(gsi.MustParseName(fmt.Sprintf("/O=Grid/CN=joiner %d", i)), "researchers")
	}
	want := vo.Version()
	casStatus := waitCAS("delta catch-up", func(st gsi.CASSyncStatus) bool {
		return st.Version >= want && st.DeltaSyncs > 0
	})
	fmt.Printf("14. CAS replica at v%d via %d delta sync(s) after 1 full bundle: %d delta bytes vs %d full, %d bytes saved\n",
		casStatus.Version, casStatus.DeltaSyncs, casStatus.DeltaBytes, casStatus.FullBytes, casStatus.BytesSaved)

	// 15. Guards on a session. A client pins the identity its server must
	// prove; a server refuses limited proxies (GSI's job-initiation rule);
	// a GT3 exchange signs each message instead of holding a conversation.
	// Each refusal below must happen.
	pinned, err := env.NewClient(aliceProxy, gsi.WithExpectedPeer(gridftp.Identity()))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pinned.Exchange(ctx, ep.Addr(), "echo", []byte("pinned")); err != nil {
		log.Fatal(err)
	}
	misPinned, err := env.NewClient(aliceProxy, gsi.WithExpectedPeer(alice.Identity()))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := misPinned.Exchange(ctx, ep.Addr(), "echo", nil); !errors.Is(err, gsi.ErrAuthentication) {
		log.Fatalf("a server other than the pinned peer was not refused: %v", err)
	}
	jobServer, err := env.NewServer(gridftp, gsi.WithRejectLimited())
	if err != nil {
		log.Fatal(err)
	}
	jobEP, err := jobServer.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		log.Fatal(err)
	}
	defer jobEP.Close()
	if _, err := proxyClient.Exchange(ctx, jobEP.Addr(), "submit", nil); err != nil {
		log.Fatalf("a full proxy was refused by a WithRejectLimited server: %v", err)
	}
	limited, err := aliceClient.Proxy(gsi.ProxyOptions{Variant: gsi.ProxyLimited, Lifetime: time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	limitedClient, err := env.NewClient(limited)
	if err != nil {
		log.Fatal(err)
	}
	// The 3-token handshake lets the client's Connect finish before the
	// server has validated it; the server then hangs up on the limited
	// proxy, so the refusal reads as end of stream on the first exchange.
	if _, err := limitedClient.Exchange(ctx, jobEP.Addr(), "submit", nil); !errors.Is(err, gsi.ErrTransport) || !errors.Is(err, io.EOF) {
		log.Fatalf("a limited proxy was not refused by a WithRejectLimited server: %v", err)
	}
	signedServer, err := env.NewServer(gridftp, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		log.Fatal(err)
	}
	signedEP, err := signedServer.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		log.Fatal(err)
	}
	defer signedEP.Close()
	signer, err := env.NewClient(aliceProxy, gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithMessageProtection(gsi.ProtectionSigned))
	if err != nil {
		log.Fatal(err)
	}
	if out, err := signer.Exchange(ctx, signedEP.Addr(), "echo", []byte("signed")); err != nil || string(out) != "signed" {
		log.Fatalf("signed GT3 exchange: %q %v", out, err)
	}
	fmt.Println("15. guards: a wrong peer pin and a limited proxy refused; a per-message-signed GT3 exchange served")

	// 16. Revocation. The CA revokes Bob and publishes a CRL; a server
	// watching its CRL file (WithReload's CRLs, the one way a CRL enters
	// a running server) installs it in the environment's trust store, so
	// Bob's next handshake is refused as an untrusted issuer while Alice
	// is still served. Each outcome below must happen.
	bob, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 7*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	crlPath := filepath.Join(dir, "crls")
	if err := os.WriteFile(crlPath, gridcert.EncodeCRLSet(nil), 0o644); err != nil {
		log.Fatal(err)
	}
	crlServer, err := env.NewServer(gridftp, gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithReload(gsi.ReloadConfig{CRLs: crlPath}))
	if err != nil {
		log.Fatal(err)
	}
	crlEP, err := crlServer.Serve(ctx, "127.0.0.1:0", echo)
	if err != nil {
		log.Fatal(err)
	}
	defer crlEP.Close()
	bobClient, err := env.NewClient(bob, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		log.Fatal(err)
	}
	aliceGT3, err := env.NewClient(alice, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bobClient.Exchange(ctx, crlEP.Addr(), "echo", nil); err != nil {
		log.Fatalf("bob refused before his revocation: %v", err)
	}
	if err := authority.Revoke(bob.Leaf().SerialNumber); err != nil {
		log.Fatal(err)
	}
	crl, err := authority.CRL()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(crlPath, gridcert.EncodeCRLSet([]*gridcert.CRL{crl}), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := crlServer.Reloader().Reload(); err != nil {
		log.Fatal(err)
	}
	if _, err := bobClient.Exchange(ctx, crlEP.Addr(), "echo", nil); !errors.Is(err, gsi.ErrUntrustedIssuer) {
		log.Fatalf("a revoked user was not refused as an untrusted issuer: %v", err)
	}
	if _, err := aliceGT3.Exchange(ctx, crlEP.Addr(), "echo", nil); err != nil {
		log.Fatalf("an unrevoked user was refused after the CRL landed: %v", err)
	}
	fmt.Printf("16. CRL #%d revokes serial %d: Bob refused (gsi.ErrUntrustedIssuer), Alice still served\n",
		crl.Number, bob.Leaf().SerialNumber)
}
