// Secured request: the Figure-3 pipeline over real HTTP through the
// handle-based API. A GT3 client's Invoke establishes a secure
// conversation with the hosting environment and calls a named service
// under a context.Context; the container authenticates, authorizes, and
// audits before the application sees the call. Denials come back as
// typed errors matchable with errors.Is.
//
//	go run ./examples/securedrequest
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/authz"
	"repro/internal/ogsa"
	"repro/internal/secsvc"
	"repro/pkg/gsi"
)

// inventoryService is the "application": it never touches security.
type inventoryService struct{ *ogsa.Base }

func newInventoryService() *inventoryService {
	s := &inventoryService{Base: ogsa.NewBase()}
	s.Data.Set("datasets", []byte("climate-2003,physics-1998"))
	return s
}

func (s *inventoryService) Invoke(call *gsi.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	switch call.Op {
	case "list":
		v, _ := s.Data.Query("datasets")
		return v, nil
	case "whoami":
		return []byte(call.Caller.Name.String()), nil
	default:
		return nil, fmt.Errorf("no such op %q", call.Op)
	}
}

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Server side: a CA, a host credential, and a hosting environment
	// whose authorizer admits only Alice and whose audit log is itself
	// published as a service.
	policy := authz.NewPolicy(authz.DenyOverrides).Add(
		authz.Rule{
			Effect:    authz.EffectPermit,
			Subjects:  []string{"/O=Grid/CN=Alice"},
			Resources: []string{"ogsa:inventory"},
			Actions:   []string{"*"},
		},
		authz.Rule{
			Effect:    authz.EffectPermit,
			Subjects:  []string{"/O=Grid/CN=Alice"},
			Resources: []string{"ogsa:security/*"},
			Actions:   []string{"Count", "Verify", "Query"},
		},
	)
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host inventory.example.org"), 30*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	audit := secsvc.NewAuditLog()
	pipeline, err := env.NewAuthorizationPipeline(gsi.WithLocalPolicy(policy))
	if err != nil {
		log.Fatal(err)
	}
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:            "inventory.example.org",
		Credential:      host,
		TrustStore:      env.Trust(),
		ChainAuthorizer: pipeline,
		Audit:           audit,
	})
	if err != nil {
		log.Fatal(err)
	}
	container.Publish("inventory", newInventoryService())
	container.Publish("security/audit", audit)
	url, shutdown, err := gsi.ServeHTTP(container, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer shutdown()
	fmt.Println("hosting environment listening at", url)

	// Client side: a GT3 Client handle for Alice under the same trust
	// roots. Invoke runs the whole Figure-3 pipeline under the context:
	// the conversation's two token exchanges, then the call.
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	aliceClient, err := env.NewClient(alice, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		log.Fatal(err)
	}
	out, err := aliceClient.Invoke(ctx, url, "inventory", "list", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("datasets: %s\n", out)

	// Bob authenticates fine but is denied by the authorization service
	// (step 5) — surfaced as a typed gsi.ErrUnauthorized; the
	// application never sees his call.
	bob, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	bobClient, err := env.NewClient(bob, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		log.Fatal(err)
	}
	_, err = bobClient.Invoke(ctx, url, "inventory", "list", nil)
	if !errors.Is(err, gsi.ErrUnauthorized) {
		log.Fatalf("bob was not denied with gsi.ErrUnauthorized: %v", err)
	}
	fmt.Println("bob denied as expected (errors.Is(err, gsi.ErrUnauthorized)):", err)

	// The audit service recorded everything, tamper-evidently.
	count, err := aliceClient.Invoke(ctx, url, "security/audit", "Count", nil)
	if err != nil {
		log.Fatal(err)
	}
	intact, err := aliceClient.Invoke(ctx, url, "security/audit", "Verify", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit log: %s events, chain %s\n", count, intact)
}
