package gram

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/xmlsec"
)

// gramBed is a full GT3 GRAM fixture.
type gramBed struct {
	auth   *ca.Authority
	trust  *gridcert.TrustStore
	alice  *gridcert.Credential
	bob    *gridcert.Credential
	res    *Resource
	client *Client
}

func newGramBed(t testing.TB) *gramBed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=cluster.example.org"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := authz.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	res, err := NewResource(host, trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	// The user submits with a proxy (single sign-on), not the long-term key.
	aliceProxy, err := proxy.New(alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Credential: aliceProxy, Trust: trust, Resource: res}
	return &gramBed{auth: auth, trust: trust, alice: alice, bob: bob, res: res, client: client}
}

func testJob() JobDescription {
	return JobDescription{
		Executable:         JobProgram,
		Args:               []string{"-n", "16"},
		Directory:          "/home/alice",
		Stdout:             "/home/alice/out",
		Queue:              "debug",
		DelegateCredential: true,
	}
}

func TestFigure4ColdPath(t *testing.T) {
	b := newGramBed(t)
	mjs, err := b.client.SubmitAndRunContext(context.Background(), testJob())
	if err != nil {
		t.Fatal(err)
	}
	if mjs.Job().State() != StateDone {
		t.Fatalf("job state = %s", mjs.Job().State())
	}
	st := b.res.Stats()
	if st.ColdStarts != 1 || st.WarmHits != 0 || st.GRIMRuns != 1 || st.StarterRuns != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Delegation happened and the delegated identity is Alice.
	if mjs.DelegatedCredential() == nil {
		t.Fatal("no delegated credential")
	}
	if !mjs.DelegatedCredential().Identity().Equal(b.alice.Identity()) {
		t.Fatalf("delegated identity = %q", mjs.DelegatedCredential().Identity())
	}
	// State history covers the lifecycle.
	hist := mjs.Job().History()
	if len(hist) < 4 {
		t.Fatalf("history = %v", hist)
	}
}

func TestWarmPathUsesLMJFS(t *testing.T) {
	b := newGramBed(t)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	st := b.res.Stats()
	if st.ColdStarts != 1 || st.WarmHits != 1 {
		t.Fatalf("stats = %+v (want 1 cold, 1 warm)", st)
	}
	// The privileged programs ran only once, for the cold start.
	if st.GRIMRuns != 1 || st.StarterRuns != 1 {
		t.Fatalf("privileged program runs = %+v", st)
	}
}

func TestUnmappedUserRejected(t *testing.T) {
	b := newGramBed(t)
	bobProxy, _ := proxy.New(b.bob, proxy.Options{})
	client := &Client{Credential: bobProxy, Trust: b.trust, Resource: b.res}
	_, err := client.Submit(testJob())
	if err == nil || !strings.Contains(err.Error(), "grid-mapfile") {
		t.Fatalf("unmapped user: %v", err)
	}
}

func TestLimitedProxyRejectedForJobs(t *testing.T) {
	b := newGramBed(t)
	lim, err := proxy.New(b.alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Credential: lim, Trust: b.trust, Resource: b.res}
	if _, err := client.Submit(testJob()); err == nil {
		t.Fatal("limited proxy submitted a job")
	}
}

func TestTamperedRequestRejected(t *testing.T) {
	b := newGramBed(t)
	env := soap.NewEnvelope(ActionSubmit, testJob().Encode())
	if err := xmlsec.SignEnvelope(env, b.client.Credential); err != nil {
		t.Fatal(err)
	}
	env.Body = JobDescription{Executable: "/bin/evil"}.Encode()
	if _, err := b.res.Deliver(env); err == nil {
		t.Fatal("tampered job request accepted")
	}
}

func TestUnsignedRequestRejected(t *testing.T) {
	b := newGramBed(t)
	env := soap.NewEnvelope(ActionSubmit, testJob().Encode())
	if _, err := b.res.Deliver(env); err == nil {
		t.Fatal("unsigned request accepted")
	}
}

func TestMJSOwnershipEnforced(t *testing.T) {
	b := newGramBed(t)
	h, err := b.client.Submit(testJob())
	if err != nil {
		t.Fatal(err)
	}
	// Bob (even though trusted) cannot connect to Alice's MJS.
	bobProxy, _ := proxy.New(b.bob, proxy.Options{})
	m, _ := b.res.LookupMJS(h.MJSHandle)
	if _, err := m.Connect(bobProxy, b.trust); err == nil {
		t.Fatal("non-owner connected to MJS")
	}
}

func TestGRIMCredentialVerification(t *testing.T) {
	b := newGramBed(t)
	h, err := b.client.Submit(testJob())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := b.res.LookupMJS(h.MJSHandle)
	info, err := b.trust.Verify(m.lmjfs.cred.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The MJS credential verifies for Alice…
	pol, err := grimPolicy(info, b.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	if pol.Account != "alice" || !pol.Host.Equal(b.res.HostIdentity()) {
		t.Fatalf("policy = %+v", pol)
	}
	// …but not for Bob: the embedded grid identity must match.
	if _, err := grimPolicy(info, b.bob.Identity()); err == nil {
		t.Fatal("GRIM credential accepted for wrong user")
	}
	// And its chain does not verify against an empty trust store.
	if _, err := gridcert.NewTrustStore().Verify(m.lmjfs.cred.Chain, gridcert.VerifyOptions{}); err == nil {
		t.Fatal("GRIM credential accepted with no trust roots")
	}
}

func TestMJSMonitoring(t *testing.T) {
	b := newGramBed(t)
	h, err := b.client.Submit(testJob())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := b.res.LookupMJS(h.MJSHandle)
	if _, err := b.client.Run(h); err != nil {
		t.Fatal(err)
	}
	// The jobState element follows the job to Done, by way of Active.
	if v, ok := m.Data.Query("jobState"); !ok || string(v) != "Done" {
		t.Fatalf("jobState = %q %v", v, ok)
	}
	var states []string
	for _, s := range m.Job().History() {
		states = append(states, s.String())
	}
	if !strings.Contains(strings.Join(states, ","), "Active") {
		t.Fatalf("states = %v", states)
	}
}

func TestJobStateMachine(t *testing.T) {
	j := NewJob(JobDescription{Executable: "/x"}, "a", nil)
	if err := j.Transition(StateActive); err == nil {
		t.Fatal("Unsubmitted -> Active allowed")
	}
	for _, s := range []JobState{StateStageIn, StatePending, StateActive, StateDone} {
		if err := j.Transition(s); err != nil {
			t.Fatalf("to %s: %v", s, err)
		}
	}
	if err := j.Transition(StateFailed); err == nil {
		t.Fatal("transition out of Done allowed")
	}
	if !j.Terminal() {
		t.Fatal("Done not terminal")
	}
}

func TestJobDescriptionRoundTrip(t *testing.T) {
	d := testJob()
	dec, err := DecodeJobDescription(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Executable != d.Executable || len(dec.Args) != 2 || dec.Queue != "debug" || !dec.DelegateCredential {
		t.Fatalf("round trip: %+v", dec)
	}
	if _, err := DecodeJobDescription([]byte("junk")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeJobDescription(JobDescription{}.Encode()); err == nil {
		t.Fatal("empty executable accepted")
	}
}

func TestMJSCancel(t *testing.T) {
	b := newGramBed(t)
	h, err := b.client.Submit(testJob())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := b.res.LookupMJS(h.MJSHandle)
	cancel := &ogsa.Call{Op: "Cancel", Caller: ogsa.Identity{Name: b.alice.Identity()}}
	reply, err := m.Invoke(cancel)
	if err != nil || string(reply) != "cancelled" {
		t.Fatalf("cancel: %q %v", reply, err)
	}
	if m.Job().State() != StateFailed {
		t.Fatalf("state after cancel = %s", m.Job().State())
	}
	if _, err := m.Invoke(cancel); err == nil {
		t.Fatal("double cancel allowed")
	}
	state, err := m.Invoke(&ogsa.Call{Op: "GetState"})
	if err != nil || string(state) != "Failed" {
		t.Fatalf("GetState: %q %v", state, err)
	}
}

// --- GT2 baseline ----------------------------------------------------

func newGT2Bed(t testing.TB) (*GT2Resource, *gridcert.Credential, *gridcert.TrustStore) {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=gt2host"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := authz.NewGridMap()
	gm.Add(alice.Identity(), "alice")
	res, err := NewGT2Resource(host, trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	aliceProxy, err := proxy.New(alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, aliceProxy, trust
}

func TestGT2SubmitWorks(t *testing.T) {
	res, aliceProxy, _ := newGT2Bed(t)
	job, err := SubmitSigned(res, aliceProxy, JobDescription{Executable: JobProgram})
	if err != nil {
		t.Fatal(err)
	}
	if job.State() != StateDone {
		t.Fatalf("state = %s", job.State())
	}
}

// TestE5LeastPrivilegeComparison reproduces the §5.2 claim: GT3 has zero
// privileged network services and its gatekeeper-equivalent compromise
// yields one user account; GT2's gatekeeper is a privileged network
// service whose compromise yields root.
func TestE5LeastPrivilegeComparison(t *testing.T) {
	// GT3 side.
	b := newGramBed(t)
	if _, err := b.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		t.Fatal(err)
	}
	gt3 := b.res.Sys.Audit()
	if len(gt3.PrivilegedNetworkServices) != 0 {
		t.Fatalf("GT3 privileged network services = %v, want none", gt3.PrivilegedNetworkServices)
	}
	if len(gt3.SetuidPrograms) != 2 {
		t.Fatalf("GT3 setuid programs = %v, want the two of §5.2", gt3.SetuidPrograms)
	}

	// GT2 side.
	res2, aliceProxy, _ := newGT2Bed(t)
	if _, err := SubmitSigned(res2, aliceProxy, JobDescription{Executable: JobProgram}); err != nil {
		t.Fatal(err)
	}
	gt2 := res2.Sys.Audit()
	if len(gt2.PrivilegedNetworkServices) != 1 {
		t.Fatalf("GT2 privileged network services = %v, want [gatekeeper]", gt2.PrivilegedNetworkServices)
	}
	// GT2 performs far more privileged operations per job than GT3.
	if gt2.PrivilegedOps <= gt3.PrivilegedOps {
		t.Fatalf("privileged ops: GT2=%d GT3=%d — GT2 should dominate", gt2.PrivilegedOps, gt3.PrivilegedOps)
	}

	// Blast radii: compromising GT3's network-facing MMJFS yields one
	// non-root account; compromising GT2's gatekeeper yields root.
	gt3Blast := b.res.Sys.Compromise(b.res.mmjfsProc)
	if gt3Blast.Root {
		t.Fatal("GT3 MMJFS compromise yields root")
	}
	if containsStr(gt3Blast.ReadableFiles, HostCredPath) {
		t.Fatal("GT3 MMJFS compromise exposes host credential")
	}
	gt2Blast := res2.Sys.Compromise(res2.GatekeeperProcess())
	if !gt2Blast.Root {
		t.Fatal("GT2 gatekeeper compromise does not yield root")
	}
	if !containsStr(gt2Blast.ReadableFiles, HostCredPath) {
		t.Fatal("GT2 gatekeeper compromise misses host credential (unexpected)")
	}
}

func containsStr(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func BenchmarkGT3JobColdPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bed := newGramBed(b)
		b.StartTimer()
		if _, err := bed.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGT3JobWarmPath(b *testing.B) {
	bed := newGramBed(b)
	if _, err := bed.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bed.client.SubmitAndRunContext(context.Background(), testJob()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGT2Job(b *testing.B) {
	res, aliceProxy, _ := newGT2Bed(b)
	desc := JobDescription{Executable: JobProgram}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubmitSigned(res, aliceProxy, desc); err != nil {
			b.Fatal(err)
		}
	}
}
