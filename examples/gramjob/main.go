// GRAM job submission: the complete Figure-4 flow through the
// handle-based API — a requestor signs a job description, the Proxy
// Router and MMJFS route and verify it, the Setuid Starter and GRIM
// bring up a per-user LMJFS with a host-derived credential, an MJS is
// created, and the requestor mutually authenticates with it, delegates
// a credential, and runs the job — all under a context.Context with a
// deadline. The simulated OS shows that no privileged network service
// was involved, and the same jobs run through GT2's root gatekeeper
// show what that design costs (§5.2).
//
//	go run ./examples/gramjob
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/gram"
	"repro/pkg/gsi"
)

func main() {
	log.SetFlags(0)
	// The whole submission flow runs under one deadline: cancellation
	// aborts between the submit, connect, delegate, and start steps.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Grid PKI and the resource's host credential.
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		log.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=cluster.example.org"), 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}

	// The resource: grid-mapfile maps Alice to local account "alice".
	gm := gsi.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	resource, err := gsi.NewJobResource(host, env.Trust(), gm)
	if err != nil {
		log.Fatal(err)
	}
	if err := resource.CreateAccount("alice"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("resource booted:", resource.HostIdentity())
	fmt.Println("initial privilege posture:", resource.Sys.Audit())

	// Step 1: Alice creates a proxy (single sign-on); her proxy Client
	// signs job descriptions with it.
	aliceClient, err := env.NewClient(alice)
	if err != nil {
		log.Fatal(err)
	}
	aliceProxy, err := aliceClient.Proxy(gsi.ProxyOptions{Lifetime: 12 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	client, err := env.NewClient(aliceProxy, gsi.WithDelegation())
	if err != nil {
		log.Fatal(err)
	}
	desc := gsi.JobDescription{
		Executable:         gsi.JobProgram,
		Args:               []string{"--steps", "1000"},
		Directory:          "/home/alice",
		Stdout:             "/home/alice/run.out",
		Queue:              "batch",
		DelegateCredential: true,
	}

	// Steps 2–7 (cold): SubmitJob signs and submits the description; the
	// router finds no LMJFS for alice, so the MMJFS verifies the request,
	// the Setuid Starter creates the LMJFS, GRIM mints its credential,
	// and the client connects, delegates, and starts the job.
	start := time.Now()
	mjs, err := client.SubmitJob(ctx, resource, desc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steps 2-7 (cold): MJS %s created in account %q (%v)\n",
		mjs.Handle(), mjs.Job().Account, time.Since(start).Round(time.Microsecond))
	fmt.Printf("job finished in state %s; delegated identity on the MJS: %s\n",
		mjs.Job().State(), mjs.DelegatedCredential().Identity())

	// A second submission from the same user takes the warm path.
	start = time.Now()
	if _, err := client.SubmitJob(ctx, resource, desc); err != nil {
		log.Fatal(err)
	}
	st := resource.Stats()
	fmt.Printf("second job (warm, %v): cold=%d warm=%d grim-runs=%d starter-runs=%d\n",
		time.Since(start).Round(time.Microsecond), st.ColdStarts, st.WarmHits, st.GRIMRuns, st.StarterRuns)

	final := resource.Sys.Audit()
	fmt.Println("final privilege posture:", final)
	if len(final.PrivilegedNetworkServices) != 0 {
		log.Fatalf("GT3 resource runs privileged network services: %v", final.PrivilegedNetworkServices)
	}
	fmt.Println("zero privileged network services; privileged code ran only in the")
	fmt.Println("two setuid programs, once, during the cold start.")

	leastPrivilege(ctx, env, host, gm, client)
}

// leastPrivilege is the §5.2 comparison (experiment E5): the same jobs
// through GT3's router/MMJFS/setuid-starter design and through GT2's
// gatekeeper — one root process that listens on the network,
// authenticates, and forks job managers — each on a fresh resource,
// then the blast radius of compromising the GT2 gatekeeper. Every
// figure is checked.
func leastPrivilege(ctx context.Context, env *gsi.Environment, host *gsi.Credential, gm *gsi.GridMap, client *gsi.Client) {
	const jobs = 5
	desc := gsi.JobDescription{Executable: gsi.JobProgram, DelegateCredential: true}
	gt3, err := gsi.NewJobResource(host, env.Trust(), gm)
	if err != nil {
		log.Fatal(err)
	}
	gt2, err := gram.NewGT2Resource(host, env.Trust(), gm)
	if err != nil {
		log.Fatal(err)
	}
	if err := gt3.CreateAccount("alice"); err != nil {
		log.Fatal(err)
	}
	if err := gt2.CreateAccount("alice"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		if _, err := client.SubmitJob(ctx, gt3, desc); err != nil {
			log.Fatal(err)
		}
		if _, err := gram.SubmitSigned(gt2, client.Credential(), desc); err != nil {
			log.Fatal(err)
		}
	}
	s2, s3 := gt2.Sys.Audit(), gt3.Sys.Audit()

	fmt.Printf("\nE5: least-privilege comparison over %d jobs (§5.2)\n", jobs)
	fmt.Printf("%-32s %-8s %-8s\n", "metric", "GT2", "GT3")
	for _, row := range []struct {
		metric       string
		got2, got3   int
		want2, want3 int
	}{
		{"privileged network services", len(s2.PrivilegedNetworkServices), len(s3.PrivilegedNetworkServices), 1, 0},
		{"setuid programs", len(s2.SetuidPrograms), len(s3.SetuidPrograms), 0, 2},
		{"privileged operations", s2.PrivilegedOps, s3.PrivilegedOps, 30, 3},
	} {
		fmt.Printf("%-32s %-8d %-8d\n", row.metric, row.got2, row.got3)
		if row.got2 != row.want2 || row.got3 != row.want3 {
			log.Fatalf("%s: GT2 %d GT3 %d, want %d and %d", row.metric, row.got2, row.got3, row.want2, row.want3)
		}
	}

	blast := gt2.Sys.Compromise(gt2.GatekeeperProcess())
	fmt.Printf("GT2 gatekeeper compromise: root=%v readable-files=%d (incl. host credential)\n",
		blast.Root, len(blast.ReadableFiles))
	if !blast.Root || len(blast.ReadableFiles) != 3 || !slices.Contains(blast.ReadableFiles, gram.HostCredPath) {
		log.Fatalf("GT2 gatekeeper compromise: root=%v readable %v, want root and 3 files incl. %s",
			blast.Root, blast.ReadableFiles, gram.HostCredPath)
	}
	fmt.Println("GT3 has no privileged network service to compromise; its network-facing")
	fmt.Println("MMJFS runs in a plain account, so a compromise is confined to that account.")
}
