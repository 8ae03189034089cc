// Race-enabled integration test for the authorization pipeline: N
// goroutines exchange against a facade server enforcing VO ∩ local
// policy with a decision cache, while rules and gridmap entries mutate
// mid-traffic. The safety property under test: after a revocation
// returns, not one further exchange is permitted — the generation bump
// must be observed on the very next exchange, never masked by a stale
// cached decision. Run under `go test -race` (the Makefile `race`
// target) to also prove the pipeline's internal locking.
package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/secsvc"
	"repro/pkg/gsi"
)

func testAuthzRevocationUnderLoad(t *testing.T, transport gsi.Transport) {
	const (
		goroutines        = 8
		exchangesPerPhase = 25
	)
	ctx := context.Background()

	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host authz"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	voCred, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=LoadVO CAS"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	vo := gsi.NewCASServer(voCred)
	vo.AddMember(alice.Identity(), "researchers")
	vo.AddPolicy(gsi.Rule{
		ID:        "vo-exchange",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"ogsa:gsi.exchange"},
		Actions:   []string{"*"},
	})
	seed, err := env.NewClient(alice)
	if err != nil {
		t.Fatal(err)
	}
	assertion, err := seed.RequestAssertion(ctx, vo)
	if err != nil {
		t.Fatal(err)
	}
	aliceVO, err := seed.EmbedAssertion(assertion)
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
	gridmap := gsi.NewGridMap()
	gridmap.Add(alice.Identity(), "alice")
	audit := secsvc.NewAuditLog()
	server, err := env.NewServer(host,
		gsi.WithTransport(transport),
		gsi.WithLocalPolicy(local),
		gsi.WithTrustedVO(vo.Certificate()),
		gsi.WithGridMap(gridmap),
		gsi.WithDecisionCache(time.Minute), // long TTL: invalidation must come from generations, not expiry
		gsi.WithAuditSink(audit),
	)
	if err != nil {
		t.Fatal(err)
	}
	pipeline := server.AuthorizationPipeline()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return []byte(peer.LocalAccount), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Phase 1: concurrent traffic while unrelated policy and gridmap
	// state churns (every mutation bumps a generation and so flushes
	// the cache's addressability — traffic must keep flowing).
	churnStop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			id := fmt.Sprintf("churn-%d", i%4)
			local.Add(gsi.Rule{
				ID:        id,
				Effect:    gsi.EffectDeny,
				Subjects:  []string{"/O=Grid/CN=Nobody"},
				Resources: []string{"other:*"},
			})
			local.Remove(id)
			dn := gsi.MustParseName(fmt.Sprintf("/O=Grid/CN=Ghost %d", i%4))
			gridmap.Add(dn, "ghost")
			gridmap.Remove(dn)
		}
	}()

	var phase1Failures atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := env.NewClient(aliceVO,
				gsi.WithTransport(transport), gsi.WithSessionPool(nil))
			if err != nil {
				phase1Failures.Add(1)
				return
			}
			defer client.Pool().Close()
			for i := 0; i < exchangesPerPhase; i++ {
				out, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("x"))
				if err != nil || string(out) != "alice" {
					t.Logf("phase 1 exchange failed: %q %v", out, err)
					phase1Failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(churnStop)
	churn.Wait()
	if n := phase1Failures.Load(); n != 0 {
		t.Fatalf("%d exchanges failed under benign churn", n)
	}

	// Revocation: the local permit disappears. From this call's return
	// onward, zero exchanges may be permitted — a cached permit served
	// past this point is exactly the stale-grant bug the generation key
	// exists to prevent.
	if !local.Remove("local-exchange") {
		t.Fatal("revocation rule not found")
	}

	var staleGrants atomic.Uint64
	var misclassified atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := env.NewClient(aliceVO,
				gsi.WithTransport(transport), gsi.WithSessionPool(nil))
			if err != nil {
				misclassified.Add(1)
				return
			}
			defer client.Pool().Close()
			for i := 0; i < exchangesPerPhase; i++ {
				_, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("x"))
				switch {
				case err == nil:
					staleGrants.Add(1)
				case !errors.Is(err, gsi.ErrUnauthorized):
					t.Logf("post-revocation exchange failed oddly: %v", err)
					misclassified.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := staleGrants.Load(); n != 0 {
		t.Fatalf("%d exchanges permitted after revocation (stale cached grants)", n)
	}
	if n := misclassified.Load(); n != 0 {
		t.Fatalf("%d post-revocation failures were not ErrUnauthorized", n)
	}

	// The cache worked during phase 1 (hits), and every decision landed
	// in an intact audit chain.
	if st := pipeline.CacheStats(); st.Hits == 0 {
		t.Fatalf("decision cache never hit under load: %+v", st)
	}
	if i := audit.VerifyChain(); i >= 0 {
		t.Fatalf("audit chain corrupt at %d", i)
	}
}

func TestAuthzRevocationUnderLoadGT2(t *testing.T) {
	testAuthzRevocationUnderLoad(t, gsi.TransportGT2())
}

func TestAuthzRevocationUnderLoadGT3(t *testing.T) {
	testAuthzRevocationUnderLoad(t, gsi.TransportGT3())
}
