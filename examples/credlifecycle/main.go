// Credential lifecycle: the paper's short-lived-proxy story made
// non-disruptive. A user deposits a medium-lived credential at an OGSA
// delegation endpoint (the online-delegation port type); a long-running
// worker keeps a short-lived working proxy alive by renewing from that
// endpoint through a CredentialManager; a pooled client carries traffic
// straight through a rotation — old sessions drain, new sessions
// handshake under the successor, and every delegation event lands in
// the container's tamper-evident audit chain.
//
//	go run ./examples/credlifecycle
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/ogsa"
	"repro/internal/secsvc"
	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// 1. A grid: CA, trust, a service host running a hosting
	// environment with the §4.1 audit service behind it.
	authority, err := gsi.NewCA("/O=Grid/CN=Lifecycle CA", 365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host portal.example.org"), 30*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	audit := secsvc.NewAuditLog()
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       "portal.example.org",
		Credential: host,
		TrustStore: env.Trust(),
		Audit:      audit,
	})
	if err != nil {
		log.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("1. grid booted:", host.Identity())

	// 2. The container exposes the delegation port type. It writes to
	// the container's audit log, so every deposit and retrieval is chained.
	container.EnableDelegation(gsi.DelegationConfig{MaxLifetime: 2 * time.Hour})
	fmt.Println("2. delegation endpoint enabled:", gsi.DelegationEndpoint)

	// 3. Alice deposits a medium-lived proxy at the endpoint over an
	// established secure conversation: the endpoint generates the key
	// pair, Alice signs — her long-term key never leaves her machine,
	// and no private key crosses the wire.
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	depositProxy, err := aliceClient.Proxy(gsi.ProxyOptions{Lifetime: 6 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	svcClient := &gsi.ServiceClient{
		Transport:  gsi.PipeTransport(container),
		Credential: depositProxy,
		TrustStore: env.Trust(),
	}
	invoke := func(ctx context.Context, op string, body []byte) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return svcClient.InvokeSecure(gsi.DelegationEndpoint, op, body)
	}
	if err := gsi.DepositDelegation(ctx, invoke, depositProxy, 6*time.Hour, time.Hour); err != nil {
		log.Fatal(err)
	}
	fmt.Println("3. Alice deposited a 6h credential (retrievals capped at 1h)")

	// 4. A worker somewhere else keeps a short-lived working proxy
	// alive: its CredentialManager renews from the endpoint ahead of
	// every expiry.
	initial, err := gsi.NewProxy(depositProxy, gsi.ProxyOptions{Lifetime: time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	cm, err := env.NewCredentialManager(initial,
		gsi.EndpointRenewal(invoke, time.Hour),
		gsi.WithRenewalHorizon(10*time.Minute),
		gsi.WithRenewalJitter(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	defer cm.Close()
	cm.Start()
	fmt.Printf("4. manager running: %s valid until %s\n",
		cm.Current().Leaf().Subject, cm.Stats().NotAfter.Format(time.RFC3339))

	// 5. The worker's pooled client exchanges traffic with a GT2
	// service; a rotation mid-traffic loses nothing.
	server, err := env.NewServer(host)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return append([]byte("ok:"), body...), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	worker, err := env.NewClient(nil, gsi.WithCredentialManager(cm), gsi.WithSessionPool(nil))
	if err != nil {
		log.Fatal(err)
	}
	defer worker.Pool().Close()

	for i := 0; i < 3; i++ {
		if _, err := worker.Exchange(ctx, ep.Addr(), "stage-in", []byte("chunk")); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := cm.Renew(ctx); err != nil { // an explicit rotation, mid-traffic
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := worker.Exchange(ctx, ep.Addr(), "stage-out", []byte("chunk")); err != nil {
			log.Fatal(err)
		}
	}
	ps := worker.Pool().Stats()
	fmt.Printf("5. 6 exchanges across a rotation: dials=%d hits=%d retired=%d (0 failures)\n",
		ps.Dials, ps.Hits, ps.Retired)
	fmt.Printf("   working proxy now: %s\n", cm.Current().Leaf().Subject)

	// 6. The audit chain recorded the lifecycle: deposits, retrievals,
	// and every authorized invocation, tamper-evidently.
	events := audit.Events()
	var deleg int
	for _, e := range events {
		if strings.HasPrefix(e.Event, "delegation-") {
			deleg++
		}
	}
	if bad := audit.VerifyChain(); bad >= 0 {
		log.Fatalf("audit chain tampered at %d", bad)
	}
	fmt.Printf("6. audit chain verified: %d events, %d delegation events\n", len(events), deleg)
}
