// Cross-module integration scenarios: each test wires several subsystems
// together the way a deployment would, asserting the end-to-end security
// properties the paper claims.
package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gridcert"
	"repro/internal/gridftp"
	"repro/internal/myproxy"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/secsvc"
	"repro/internal/soap"
)

// fixture is a single-CA grid: the CA, a trust store holding it, a user
// and a host.
type fixture struct {
	auth  *ca.Authority
	trust *gridcert.TrustStore
	alice *gridcert.Credential
	host  *gridcert.Credential
}

func newFixture(tb testing.TB) fixture {
	tb.Helper()
	auth, trust := newDomain(tb, "Grid")
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host bench"), 12*time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	return fixture{auth: auth, trust: trust, alice: alice, host: host}
}

// newDomain is one classical organization: its own CA and a trust store
// that trusts it.
func newDomain(tb testing.TB, org string) (*ca.Authority, *gridcert.TrustStore) {
	tb.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O="+org+"/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		tb.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(auth.Certificate()); err != nil {
		tb.Fatal(err)
	}
	return auth, trust
}

// benchService echoes its request body.
type benchService struct{ *ogsa.Base }

func newBenchService() *benchService {
	s := &benchService{Base: ogsa.NewBase()}
	s.Data.Set("__warmup__", []byte("ok"))
	return s
}

func (s *benchService) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	return call.Body, nil
}

// TestIntegrationMyProxyToGRAM: a portal retrieves a user's delegated
// credential from the repository and submits a job with it — the classic
// MyProxy + GRAM workflow.
func TestIntegrationMyProxyToGRAM(t *testing.T) {
	f := newFixture(t)

	// Alice deposits a week-long proxy with the repository.
	repo := myproxy.NewServer()
	deposit, err := proxy.New(f.alice, proxy.Options{Lifetime: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.StoreContext(context.Background(), "alice", "portal-pass", deposit, 2*time.Hour); err != nil {
		t.Fatal(err)
	}

	// The portal (a different machine: it has no copy of Alice's keys)
	// retrieves a short-lived proxy.
	delegatee, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := repo.RetrieveContext(context.Background(), "alice", "portal-pass", req)
	if err != nil {
		t.Fatal(err)
	}
	portalCred, err := delegatee.Accept(reply)
	if err != nil {
		t.Fatal(err)
	}

	// The portal submits a job on Alice's behalf.
	gm := authz.NewGridMap()
	gm.Add(f.alice.Identity(), "alice")
	res, err := gram.NewResource(f.host, f.trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	client := &gram.Client{Credential: portalCred, Trust: f.trust, Resource: res}
	mjs, err := client.SubmitAndRunContext(context.Background(), gram.JobDescription{
		Executable:         gram.JobProgram,
		DelegateCredential: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mjs.Job().State() != gram.StateDone {
		t.Fatalf("job state = %s", mjs.Job().State())
	}
	// The job's delegated credential still resolves to Alice even though
	// it came through repository + portal (chain depth 3).
	if !mjs.DelegatedCredential().Identity().Equal(f.alice.Identity()) {
		t.Fatalf("delegated identity = %q", mjs.DelegatedCredential().Identity())
	}
}

// TestIntegrationCASRestrictedProxyCannotSubmitJobs: a CAS restricted
// proxy carries reduced rights; combined with VO policy a resource can
// allow data reads while GRAM still accepts only the identity it maps.
func TestIntegrationCASGovernedSharing(t *testing.T) {
	f := newFixture(t)
	voCred, err := f.auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server := cas.NewServer(voCred)
	server.AddMember(f.alice.Identity(), "researchers")
	server.AddPolicy(authz.Rule{
		Effect:    authz.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/shared/*"},
		Actions:   []string{"read"},
	})
	assertion, err := server.IssueAssertionContext(context.Background(), f.alice.Identity())
	if err != nil {
		t.Fatal(err)
	}
	cred, err := cas.EmbedInProxy(f.alice, assertion)
	if err != nil {
		t.Fatal(err)
	}

	local := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"*"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read", "write", "delete"},
	})
	enforcer := cas.NewEnforcer(f.trust, local)
	enforcer.TrustVO(server.Certificate())

	res, err := enforcer.Authorize(cred.Chain, "data:/shared/set1", "read", time.Time{})
	if err != nil || res.Decision != authz.Permit {
		t.Fatalf("read: %v %+v", err, res)
	}
	res, _ = enforcer.Authorize(cred.Chain, "data:/shared/set1", "delete", time.Time{})
	if res.Decision != authz.Deny {
		t.Fatalf("delete: %+v", res)
	}
}

// TestIntegrationVOWideJobSubmission: two domains form a VO; a user from
// one domain submits a job at the other domain's GRAM resource. This is
// the paper's headline scenario end to end.
func TestIntegrationVOWideJobSubmission(t *testing.T) {
	caA, trustA := newDomain(t, "OrgA")
	caB, trustB := newDomain(t, "OrgB")
	alice, err := caA.NewEntity(gridcert.MustParseName("/O=OrgA/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := caB.NewHostEntity(gridcert.MustParseName("/O=OrgB/CN=host cluster-b"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	gm := authz.NewGridMap()
	gm.Add(alice.Identity(), "visitor_alice")
	// The resource validates with OrgB's trust store.
	res, err := gram.NewResource(hostB, trustB, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("visitor_alice"); err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &gram.Client{Credential: p, Trust: trustA, Resource: res}
	job := gram.JobDescription{Executable: gram.JobProgram, DelegateCredential: true}

	// Two domains with no trust relationship: OrgB has never heard of
	// the CA that vouches for Alice.
	if _, err := client.SubmitAndRunContext(context.Background(), job); err == nil {
		t.Fatal("cross-domain job accepted before the domains joined")
	}
	// Forming the VO the GSI way: each domain unilaterally installs the
	// other's CA beside its own. No agreement between them is signed.
	if err := trustA.AddRoot(caB.Certificate()); err != nil {
		t.Fatal(err)
	}
	if err := trustB.AddRoot(caA.Certificate()); err != nil {
		t.Fatal(err)
	}
	mjs, err := client.SubmitAndRunContext(context.Background(), job)
	if err != nil {
		t.Fatalf("cross-domain job: %v", err)
	}
	if mjs.Job().State() != gram.StateDone {
		t.Fatalf("state = %s", mjs.Job().State())
	}
	if mjs.Job().Account != "visitor_alice" {
		t.Fatalf("account = %q", mjs.Job().Account)
	}
}

// TestIntegrationFullStackHTTP: the Figure-3 pipeline against a hosting
// environment whose audit log is itself an OGSA service, over the HTTP
// binding.
func TestIntegrationFullStackHTTP(t *testing.T) {
	f := newFixture(t)
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:*"},
		Actions:   []string{"*"},
	})
	audit := secsvc.NewAuditLog()
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       "full",
		Credential: f.host,
		TrustStore: f.trust,
		Authorizer: &authz.PolicyEngine{Policy: pol, DefaultDeny: true},
		Audit:      audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.Publish("app", newBenchService())
	container.Publish("security/audit", audit)
	srv, err := soap.NewServer("127.0.0.1:0", container.Dispatcher())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	httpClient := &soap.Client{Endpoint: srv.URL()}
	req := &core.Requestor{Credential: f.alice, Trust: f.trust}
	out, trace, err := req.InvokeContext(context.Background(), httpClient.Call, "app", "echo", []byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "over the wire" {
		t.Fatalf("out = %q", out)
	}
	if trace.Mechanism == "" || trace.Invocation <= 0 {
		t.Fatalf("trace = %+v", trace)
	}
	// The audit log is intact and saw the traffic.
	client := &ogsa.Client{Transport: httpClient.Call, Credential: f.alice, TrustStore: f.trust}
	verify, err := client.InvokeSigned("security/audit", "Verify", nil)
	if err != nil || string(verify) != "intact" {
		t.Fatalf("audit: %q %v", verify, err)
	}
	events, err := client.InvokeSigned("security/audit", "Query", []byte("invoke"))
	if err != nil || !strings.Contains(string(events), "app/echo") {
		t.Fatalf("audit query: %v %q", err, events)
	}
}

// TestIntegrationGridFTPWithCASPolicy: a GridFTP store governed by the
// same policy engine CAS uses, accessed with a proxy credential over the
// GT2 secured transport.
func TestIntegrationGridFTPThirdParty(t *testing.T) {
	f := newFixture(t)
	srcHost, err := f.auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host ftp-src"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dstHost, err := f.auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host ftp-dst"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:   authz.EffectPermit,
		Subjects: []string{f.alice.Identity().String()},
		Actions:  []string{"read", "write", "delete", "list"},
	})
	srcStore, dstStore := gridftp.NewStore(pol), gridftp.NewStore(pol)
	src, err := gridftp.NewServer("127.0.0.1:0", srcStore, srcHost, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := gridftp.NewServer("127.0.0.1:0", dstStore, dstHost, f.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := srcStore.PutOwned(f.alice.Identity(), "/exp/data", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Alice uses a proxy — single sign-on end to end.
	aliceProxy, err := proxy.New(f.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gridftp.ThirdPartyTransfer(aliceProxy, f.trust,
		src.Addr(), src.Identity(), dst.Addr(), dst.Identity(),
		"/exp/data", "/mirror/data"); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get(f.alice.Identity(), "/mirror/data")
	if err != nil || string(got) != "payload" {
		t.Fatalf("%v %q", err, got)
	}
}

// TestIntegrationMJSMonitoredThroughContainer: the MJS created by GRAM is
// itself a Grid service; publishing it in a hosting environment lets
// clients monitor the job with standard signed SOAP calls (GetState /
// FindServiceData), with the container enforcing authentication.
func TestIntegrationMJSMonitoredThroughContainer(t *testing.T) {
	f := newFixture(t)
	gm := authz.NewGridMap()
	gm.Add(f.alice.Identity(), "alice")
	res, err := gram.NewResource(f.host, f.trust, gm)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CreateAccount("alice"); err != nil {
		t.Fatal(err)
	}
	aliceProxy, err := proxy.New(f.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := &gram.Client{Credential: aliceProxy, Trust: f.trust, Resource: res}
	h, err := client.Submit(gram.JobDescription{Executable: gram.JobProgram})
	if err != nil {
		t.Fatal(err)
	}
	mjs, _ := res.LookupMJS(h.MJSHandle)

	// Publish the MJS in a container bound to the host credential.
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name: "gram-host", Credential: f.host, TrustStore: f.trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.Publish("mjs/1", mjs)
	transport := soap.Pipe(container.Dispatcher())
	soapClient := &ogsa.Client{Transport: transport, Credential: aliceProxy, TrustStore: f.trust}

	state, err := soapClient.InvokeSigned("mjs/1", "GetState", nil)
	if err != nil || string(state) != "Unsubmitted" {
		t.Fatalf("GetState: %q %v", state, err)
	}
	if _, err := client.Run(h); err != nil {
		t.Fatal(err)
	}
	state, err = soapClient.InvokeSigned("mjs/1", "GetState", nil)
	if err != nil || string(state) != "Done" {
		t.Fatalf("GetState after run: %q %v", state, err)
	}
	// The jobState SDE is queryable through the standard port type.
	sde, err := soapClient.InvokeSigned("mjs/1", "FindServiceData", []byte("jobState"))
	if err != nil || string(sde) != "Done" {
		t.Fatalf("FindServiceData: %q %v", sde, err)
	}
	// Unsigned monitoring is rejected by the container.
	if _, err := container.Dispatcher().Dispatch(soap.NewEnvelope("ogsa/mjs/1/GetState", nil)); err == nil {
		t.Fatal("unsigned monitoring accepted")
	}
}
