package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/ogsa"
	"repro/internal/soap"
	"repro/internal/wssec"
)

// bootstrap is a single-CA grid: the CA, a trust store holding it, and a
// hosting environment under a host credential with demoService published
// as "app".
type bootstrap struct {
	CA        *ca.Authority
	Trust     *gridcert.TrustStore
	Container *ogsa.Container
}

func newBootstrap(t testing.TB, authorizer authz.Engine) *bootstrap {
	t.Helper()
	authority, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host s1"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       "s1",
		Credential: host,
		TrustStore: trust,
		Authorizer: authorizer,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.Publish("app", newDemoService())
	return &bootstrap{CA: authority, Trust: trust, Container: container}
}

// demoService echoes with its caller's identity.
type demoService struct{ *ogsa.Base }

func newDemoService() *demoService {
	s := &demoService{Base: ogsa.NewBase()}
	s.Data.Set("__warmup__", []byte("ok"))
	return s
}

func (s *demoService) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	if call.Op == "whoami" {
		return []byte(call.Caller.Name.String()), nil
	}
	return append([]byte("ok:"), call.Body...), nil
}

func TestFigure3PipelineStateful(t *testing.T) {
	boot := newBootstrap(t, nil)
	alice, _ := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)

	req := &Requestor{Credential: alice, Trust: boot.Trust}
	out, trace, err := req.InvokeContext(context.Background(), soap.Pipe(boot.Container.Dispatcher()), "app", "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	if trace.Mechanism != wssec.MechSecureConversation {
		t.Fatalf("mechanism = %q (service prefers wssc)", trace.Mechanism)
	}
	if trace.PolicyFetch <= 0 || trace.TokenProcessing <= 0 || trace.Invocation <= 0 {
		t.Fatalf("trace not populated: %+v", trace)
	}
	if trace.Converted || trace.Conversion != 0 {
		t.Fatalf("unexpected conversion: %+v", trace)
	}
}

func TestFigure3PipelineStateless(t *testing.T) {
	boot := newBootstrap(t, nil)
	alice, _ := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	req := &Requestor{Credential: alice, Trust: boot.Trust, PreferStateless: true}
	out, trace, err := req.InvokeContext(context.Background(), soap.Pipe(boot.Container.Dispatcher()), "app", "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
	// Client preference only reorders *its* list; the service's published
	// preference still picks the mechanism. Verify the field is set.
	if trace.Mechanism == "" {
		t.Fatal("no mechanism recorded")
	}
}

func TestFigure3WithConversion(t *testing.T) {
	// A site user holding no grid credential converts inside the pipeline
	// (step 2) — here an online CA the host trusts mints one on demand —
	// then the request proceeds under the converted identity.
	boot := newBootstrap(t, nil)
	siteCA, err := ca.New(gridcert.MustParseName("/O=ANL/CN=Online CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Trust.AddRoot(siteCA.Certificate()); err != nil {
		t.Fatal(err)
	}
	aliceDN := gridcert.MustParseName("/O=ANL/CN=Alice")
	convert := func() (*gridcert.Credential, error) {
		return siteCA.NewEntity(aliceDN, time.Hour)
	}

	req := &Requestor{Credential: nil, Trust: boot.Trust, Convert: convert}
	out, trace, err := req.InvokeContext(context.Background(), soap.Pipe(boot.Container.Dispatcher()), "app", "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != aliceDN.String() {
		t.Fatalf("out = %q", out)
	}
	if !trace.Converted || trace.Conversion <= 0 {
		t.Fatalf("conversion not traced: %+v", trace)
	}
}

func TestPipelineAuthorizationDeny(t *testing.T) {
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:app"},
		Actions:   []string{"whoami", "FindServiceData"},
	})
	boot := newBootstrap(t, &authz.PolicyEngine{Policy: pol, DefaultDeny: true})
	alice, _ := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	bob, _ := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)

	reqA := &Requestor{Credential: alice, Trust: boot.Trust}
	if _, _, err := reqA.InvokeContext(context.Background(), soap.Pipe(boot.Container.Dispatcher()), "app", "whoami", nil); err != nil {
		t.Fatalf("alice: %v", err)
	}
	reqB := &Requestor{Credential: bob, Trust: boot.Trust}
	_, _, err := reqB.InvokeContext(context.Background(), soap.Pipe(boot.Container.Dispatcher()), "app", "whoami", nil)
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("bob: %v", err)
	}
}

func TestRequestorWithoutCredentialOrConverter(t *testing.T) {
	boot := newBootstrap(t, nil)
	req := &Requestor{Trust: boot.Trust}
	_, _, err := req.InvokeContext(context.Background(), soap.Pipe(boot.Container.Dispatcher()), "app", "op", nil)
	if err == nil {
		t.Fatal("invocation without credential succeeded")
	}
}

func TestPipelineOverHTTP(t *testing.T) {
	boot := newBootstrap(t, nil)
	srv, err := soap.NewServer("127.0.0.1:0", boot.Container.Dispatcher())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	alice, _ := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	client := &soap.Client{Endpoint: srv.URL()}
	req := &Requestor{Credential: alice, Trust: boot.Trust}
	out, _, err := req.InvokeContext(context.Background(), client.Call, "app", "whoami", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "/O=Grid/CN=Alice" {
		t.Fatalf("out = %q", out)
	}
}

func BenchmarkFigure3PipelineFull(b *testing.B) {
	boot := newBootstrap(b, nil)
	alice, _ := boot.CA.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	transport := soap.Pipe(boot.Container.Dispatcher())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &Requestor{Credential: alice, Trust: boot.Trust}
		if _, _, err := req.InvokeContext(context.Background(), transport, "app", "echo", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}
