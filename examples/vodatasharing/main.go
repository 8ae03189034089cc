// VO data sharing: two organizations form a virtual organization (the
// policy overlay of Figure 1) and share a dataset under CAS-governed
// community policy (Figure 2). Argonne's resource lets VO members read
// its climate data; ISI's user Alice accesses it without Argonne ever
// having heard of her — the VO is the bridge. The CAS request path runs
// through the handle-based API under a context.Context.
//
//	go run ./examples/vodatasharing
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// Two classical organizations, each with its own CA.
	anlCA, err := gsi.NewCA("/O=ANL/CN=CA", 365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	isiCA, err := gsi.NewCA("/O=ISI/CN=CA", 365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("domains: ANL and ISI")

	// They form a VO. Each installs the other's CA beside its own — a
	// unilateral act; no inter-organizational agreement is signed.
	anlEnv, err := gsi.NewEnvironment(gsi.WithRoots(anlCA.Certificate(), isiCA.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	isiEnv, err := gsi.NewEnvironment(gsi.WithRoots(isiCA.Certificate(), anlCA.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("VO formed: 2 unilateral trust acts, 0 bilateral agreements")

	// Alice is an ISI user; the data service and the CAS server live at ANL.
	alice, err := isiCA.NewEntity(gsi.MustParseName("/O=ISI/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	voCred, err := anlCA.NewEntity(gsi.MustParseName("/O=ANL/CN=ClimateVO CAS"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	casServer := gsi.NewCASServer(voCred)
	casServer.AddMember(alice.Identity(), "researchers")
	casServer.AddPolicy(gsi.Rule{
		ID:        "vo-share-climate",
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"gridftp:/climate/*"},
		Actions:   []string{"read"},
	})
	fmt.Println("CAS server enrolled Alice into", casServer.VO())

	// ANL's resource outsources a policy slice to the VO: local policy
	// admits any authenticated grid user to the climate tree, and the VO
	// assertion narrows it to read-only for researchers.
	local := gsi.NewPolicy(gsi.Rule{
		ID:        "anl-local",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"gridftp:/climate/*"},
		Actions:   []string{"read", "write"},
	})
	enforcer := gsi.NewCASEnforcer(anlEnv.Trust(), local)
	enforcer.TrustVO(casServer.Certificate())

	// Step 1–2 through Alice's Client handle: request the assertion
	// (cancellable) and embed it in a restricted proxy.
	aliceClient, err := isiEnv.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	assertion, err := aliceClient.RequestAssertion(ctx, casServer)
	if err != nil {
		log.Fatal(err)
	}
	cred, err := aliceClient.EmbedAssertion(assertion)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assertion issued and embedded in restricted proxy")

	// Step 3: the ANL resource decides, also under the context.
	for _, attempt := range []struct{ action, resource string }{
		{"read", "gridftp:/climate/run7"},
		{"write", "gridftp:/climate/run7"},
		{"read", "gridftp:/secret/plans"},
	} {
		res, err := enforcer.AuthorizeContext(ctx, cred.Chain, attempt.resource, attempt.action, time.Time{})
		if err != nil && res.Decision != gsi.Deny {
			log.Fatal(err)
		}
		fmt.Printf("  %s %-24s -> %-6s (local=%s, vo=%s)\n",
			attempt.action, attempt.resource, res.Decision, res.Local, res.VO)
	}

	// The dual check: a non-member from ANL's own CA cannot use the VO
	// path even though the local policy would admit them, because CAS
	// issues them no assertion.
	mallory, err := anlCA.NewEntity(gsi.MustParseName("/O=ANL/CN=Mallory"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	malloryClient, err := anlEnv.NewClient(mallory)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := malloryClient.RequestAssertion(ctx, casServer); err != nil {
		fmt.Println("non-member denied an assertion:", err)
	}
}
