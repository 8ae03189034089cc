// Command casctl demonstrates the Community Authorization Service flow
// of the paper's Figure 2 on the handle-based gsi API: a VO enrolls
// members and policy, a member's Client requests a signed assertion
// under a context.Context, embeds it in a restricted proxy, and a
// resource enforces the intersection of VO and local policy.
//
// With -serve the enforcement also runs through a live facade server's
// authorization pipeline: N exchanges hit the decision cache, a -revoke
// pass proves the generation bump defeats cached grants, and the audit
// chain is verified.
//
// Usage:
//
//	casctl [-member DN] [-resource R] [-action A] [-timeout D]
//	       [-serve] [-exchanges N] [-cache-ttl D] [-revoke]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/secsvc"
	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	member := flag.String("member", "/O=Grid/CN=Alice", "member DN")
	resource := flag.String("resource", "data:/climate/run1", "resource to access")
	action := flag.String("action", "read", "action to attempt")
	timeout := flag.Duration("timeout", 10*time.Second, "deadline for the assertion request")
	serve := flag.Bool("serve", false, "also enforce through a live facade server's authorization pipeline")
	exchanges := flag.Int("exchanges", 8, "exchanges to run against the facade server (-serve)")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Second, "decision-cache TTL for the pipeline (-serve; 0 disables)")
	revoke := flag.Bool("revoke", true, "revoke the local rule mid-traffic and prove the cache honors it (-serve)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	memberDN := gsi.MustParseName(*member)
	memberCred, err := authority.NewEntity(memberDN, 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=ClimateVO CAS"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	server := gsi.NewCASServer(voCred)
	server.AddMember(memberDN, "researchers")
	server.AddPolicy(gsi.Rule{
		ID:        "vo-read-climate",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/climate/*"},
		Actions:   []string{"read"},
	})
	fmt.Printf("VO %s: 1 member, %d policy rule(s)\n", server.VO(), server.PolicySize())

	// Step 1: the member's Client obtains a signed assertion.
	client, err := env.NewClient(memberCred)
	if err != nil {
		log.Fatal(err)
	}
	assertion, err := client.RequestAssertion(ctx, server)
	if err != nil {
		log.Fatalf("step 1 (issue): %v", err)
	}
	fmt.Printf("step 1: assertion issued to %s with %d rule(s), expires %s\n",
		assertion.Subject, len(assertion.Rules), assertion.ExpiresAt.Format(time.RFC3339))

	// Step 2: embed in a restricted proxy.
	proxyCred, err := client.EmbedAssertion(assertion)
	if err != nil {
		log.Fatalf("step 2 (embed): %v", err)
	}
	fmt.Printf("step 2: restricted proxy %s\n", proxyCred.Leaf().Subject)

	// Step 3: resource enforcement (local ∩ VO), under the same context.
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "local-allow-all-data",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read", "write"},
	})
	enforcer, err := env.NewAuthorizationPipeline(gsi.WithLocalPolicy(local), gsi.WithTrustedVO(server.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := enforcer.Authorize(ctx, gsi.Peer{Chain: proxyCred.Chain}, *resource, *action)
	if err != nil {
		log.Fatalf("step 3 (enforce): %v", err)
	}
	fmt.Printf("step 3: %s %s -> %s (local=%s vo=%s): %s\n",
		*action, *resource, res.Decision, res.Local, res.VO, res.Reason)

	if !*serve {
		return
	}

	// Step 4: the same decision, but made by a live facade server's
	// authorization pipeline — decision cache, gridmap mapping, and
	// audit chain included. The VO grants the exchange resource so the
	// assertion applies to served traffic.
	server.AddPolicy(gsi.Rule{
		ID:        "vo-exchange",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{*action},
	})
	assertion, err = client.RequestAssertion(ctx, server)
	if err != nil {
		log.Fatalf("step 4 (re-issue): %v", err)
	}
	proxyCred, err = client.EmbedAssertion(assertion)
	if err != nil {
		log.Fatalf("step 4 (re-embed): %v", err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host casctl"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	serverLocal := gsi.NewPolicy(gsi.Rule{
		ID:        "local-exchange",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	gridmap := gsi.NewGridMap()
	gridmap.Add(memberDN, "griduser")
	audit := secsvc.NewAuditLog()
	facade, err := env.NewServer(host,
		gsi.WithLocalPolicy(serverLocal),
		gsi.WithTrustedVO(server.Certificate()),
		gsi.WithGridMap(gridmap),
		gsi.WithAuditSink(audit),
		gsi.WithDecisionCache(*cacheTTL),
	)
	if err != nil {
		log.Fatal(err)
	}
	pipeline := facade.AuthorizationPipeline()
	ep, err := facade.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return []byte(peer.LocalAccount), nil
		})
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	voClient, err := env.NewClient(proxyCred, gsi.WithSessionPool(nil))
	if err != nil {
		log.Fatal(err)
	}
	defer voClient.Pool().Close()
	var account []byte
	for i := 0; i < *exchanges; i++ {
		if account, err = voClient.Exchange(ctx, ep.Addr(), *action, nil); err != nil {
			log.Fatalf("step 4 (exchange %d): %v", i, err)
		}
	}
	st := pipeline.CacheStats()
	fmt.Printf("step 4: %d facade exchange(s) as account %q — cache %d hit(s) / %d miss(es)\n",
		*exchanges, account, st.Hits, st.Misses)

	if *revoke {
		serverLocal.Remove("local-exchange")
		if _, err := voClient.Exchange(ctx, ep.Addr(), *action, nil); errors.Is(err, gsi.ErrUnauthorized) {
			fmt.Println("step 5: local rule revoked — very next exchange denied, no stale cache grant")
		} else {
			log.Fatalf("step 5: post-revocation exchange returned %v, want unauthorized", err)
		}
	}
	intact := "intact"
	if i := audit.VerifyChain(); i >= 0 {
		intact = fmt.Sprintf("corrupt at %d", i)
	}
	fmt.Printf("audit: %d event(s), chain %s\n", audit.Len(), intact)
}
