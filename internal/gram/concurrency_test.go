package gram

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/proxy"
)

// TestMultiUserConcurrentSubmissions exercises the router, MMJFS and
// per-account LMJFS machinery under concurrent load from several users.
func TestMultiUserConcurrentSubmissions(t *testing.T) {
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=bigcluster"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	const users = 4
	const jobsPerUser = 3
	gm := authz.NewGridMap()
	creds := make([]*gridcert.Credential, users)
	for i := range creds {
		dn := gridcert.MustParseName(fmt.Sprintf("/O=Grid/CN=User%02d", i))
		c, err := auth.NewEntity(dn, 12*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		creds[i] = c
		gm.Add(dn, fmt.Sprintf("user%02d", i))
	}
	res, err := NewResource(host, trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users; i++ {
		if err := res.CreateAccount(fmt.Sprintf("user%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, users*jobsPerUser)
	for i := 0; i < users; i++ {
		p, err := proxy.New(creds[i], proxy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		client := &Client{Credential: p, Trust: trust, Resource: res}
		for j := 0; j < jobsPerUser; j++ {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				mjs, err := c.SubmitAndRunContext(context.Background(), JobDescription{Executable: JobProgram, DelegateCredential: true})
				if err != nil {
					errs <- err
					return
				}
				if mjs.Job().State() != StateDone {
					errs <- fmt.Errorf("job state %s", mjs.Job().State())
				}
			}(client)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := res.Stats()
	if st.JobsAccepted != users*jobsPerUser {
		t.Fatalf("jobs accepted = %d", st.JobsAccepted)
	}
	// Concurrent first submissions for one account share a single cold
	// start, and GRIM ran only for cold starts.
	if st.ColdStarts != users {
		t.Fatalf("cold starts = %d, want one per user (%d)", st.ColdStarts, users)
	}
	if st.GRIMRuns != st.ColdStarts || st.StarterRuns != st.ColdStarts {
		t.Fatalf("privileged runs: %+v", st)
	}
	// Still zero privileged network services afterwards.
	if snap := res.Sys.Audit(); len(snap.PrivilegedNetworkServices) != 0 {
		t.Fatalf("privileged network services: %v", snap.PrivilegedNetworkServices)
	}
}

// TestJobsIsolatedPerAccount: one user's MJS cannot be driven by another
// user even when both are valid local users.
func TestJobsIsolatedPerAccount(t *testing.T) {
	auth, _ := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	host, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=c2"), 12*time.Hour)
	u1, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=U1"), 12*time.Hour)
	u2, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=U2"), 12*time.Hour)
	gm := authz.NewGridMap()
	gm.Add(u1.Identity(), "u1")
	gm.Add(u2.Identity(), "u2")
	res, err := NewResource(host, trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	res.CreateAccount("u1")
	res.CreateAccount("u2")

	p1, _ := proxy.New(u1, proxy.Options{})
	p2, _ := proxy.New(u2, proxy.Options{})
	c1 := &Client{Credential: p1, Trust: trust, Resource: res}
	h, err := c1.Submit(JobDescription{Executable: JobProgram})
	if err != nil {
		t.Fatal(err)
	}
	// U2 tries to run U1's MJS.
	c2 := &Client{Credential: p2, Trust: trust, Resource: res}
	if _, err := c2.Run(h); err == nil {
		t.Fatal("cross-user MJS control allowed")
	}
	// U1 succeeds.
	if _, err := c1.Run(h); err != nil {
		t.Fatal(err)
	}
}
