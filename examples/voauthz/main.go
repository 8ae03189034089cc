// Community-authorized exchanges end to end: a VO's CAS issues Alice a
// signed policy assertion (Figure 2 step 1), she embeds it in a
// restricted proxy (step 2) and dials a facade server whose
// authorization pipeline enforces VO ∩ local policy, maps her through
// the grid-mapfile, caches the decision, and audits every outcome to a
// tamper-evident hash chain (step 3 + §4.1). Two mid-traffic
// revocations — of the VO, then of the local rule — show the decision
// cache honoring each generation bump on the very next exchange.
//
//	go run ./examples/voauthz
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/secsvc"
	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// A grid with one CA; the resource's environment trusts it.
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host data.example.org"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=ClimateVO CAS"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	// The VO: Alice is a researcher; the community grants researchers
	// read-style ops on the exchange resource.
	vo := gsi.NewCASServer(voCred)
	vo.AddMember(alice.Identity(), "researchers")
	vo.AssignRole(alice.Identity(), "operator")
	vo.AddPolicy(gsi.Rule{
		ID:        "vo-researchers-read",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"fetch", "stat"},
	})

	// Step 1+2: Alice obtains her assertion and embeds it in a
	// restricted proxy — the credential she presents to resources.
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	assertion, err := aliceClient.RequestAssertion(ctx, vo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. CAS assertion: %d rule(s), groups=%v roles=%v\n",
		len(assertion.Rules), assertion.Groups, assertion.Roles)
	aliceVO, err := aliceClient.EmbedAssertion(assertion)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. restricted proxy: %s\n", aliceVO.Leaf().Subject)

	// Step 3: the resource. Local policy permits any authenticated CA
	// subject on the exchange — the VO assertion narrows that to the
	// community's action list; the gridmap supplies the local account.
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "local-any-subject",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	gridmap := gsi.NewGridMap()
	gridmap.Add(alice.Identity(), "alice")
	audit := secsvc.NewAuditLog()
	server, err := env.NewServer(host,
		gsi.WithLocalPolicy(local),
		gsi.WithTrustedVO(vo.Certificate()),
		gsi.WithGridMap(gridmap),
		gsi.WithAuditSink(audit),
		gsi.WithDecisionCache(30*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	pipeline := server.AuthorizationPipeline()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return []byte(fmt.Sprintf("%s ran %s as local account %q", peer.Identity, op, peer.LocalAccount)), nil
		})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()

	// Traffic: the first exchange pays the full pipeline (assertion
	// verification, VO ∩ local evaluation, gridmap); the rest hit the
	// decision cache.
	voClient, err := env.NewClient(aliceVO, gsi.WithSessionPool(nil))
	if err != nil {
		log.Fatal(err)
	}
	defer voClient.Pool().Close()
	for i := 0; i < 5; i++ {
		out, err := voClient.Exchange(ctx, ep.Addr(), "fetch", []byte("run1"))
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("3. first exchange: %s\n", out)
		}
	}
	st := pipeline.CacheStats()
	fmt.Printf("4. decision cache over 5 exchanges: %d hit(s), %d miss(es)\n", st.Hits, st.Misses)

	// The VO never granted "delete": local policy alone would permit it,
	// the intersection denies it.
	if _, err := voClient.Exchange(ctx, ep.Addr(), "delete", nil); errors.Is(err, gsi.ErrUnauthorized) {
		fmt.Println("5. op outside the VO grant: denied (local ∩ VO)")
	} else {
		log.Fatalf("delete unexpectedly: %v", err)
	}

	// Revocation mid-traffic, twice; each generation bump defeats the
	// cached permit on the very next exchange. First the resource stops
	// honouring the VO: Alice's assertion-bearing proxy is refused, while
	// local policy alone still serves her own credential.
	pipeline.DistrustVO(vo.VO())
	if _, err := voClient.Exchange(ctx, ep.Addr(), "fetch", nil); !errors.Is(err, gsi.ErrUnauthorized) {
		log.Fatalf("exchange under a distrusted VO's assertion: %v", err)
	}
	if _, err := aliceClient.Exchange(ctx, ep.Addr(), "fetch", nil); err != nil {
		log.Fatal(err)
	}
	// Then the operator pulls the local rule.
	local.Remove("local-any-subject")
	if _, err := aliceClient.Exchange(ctx, ep.Addr(), "fetch", nil); errors.Is(err, gsi.ErrUnauthorized) {
		fmt.Println("6. after revoking the VO, then the local rule: each very next exchange denied (no stale cache grant)")
	} else {
		log.Fatalf("post-revocation exchange: %v", err)
	}

	// The audit service holds every decision in its hash chain.
	intact := "intact"
	if i := audit.VerifyChain(); i >= 0 {
		intact = fmt.Sprintf("corrupt at %d", i)
	}
	fmt.Printf("7. audit trail: %d event(s), chain %s\n", audit.Len(), intact)
}
