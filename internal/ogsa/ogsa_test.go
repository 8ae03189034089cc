package ogsa

import (
	"context"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/wssec"
)

// echoService is a minimal Grid service for tests.
type echoService struct {
	*Base
}

func newEchoService() *echoService {
	s := &echoService{Base: NewBase()}
	s.Data.Set("status", []byte("idle"))
	return s
}

func (s *echoService) Invoke(call *Call) ([]byte, error) {
	if reply, handled, err := s.HandleStandardOp(call); handled {
		return reply, err
	}
	switch call.Op {
	case "echo":
		return append([]byte(call.Caller.Name.String()+":"), call.Body...), nil
	default:
		return nil, fmt.Errorf("unknown op %q", call.Op)
	}
}

type memAudit struct {
	mu     sync.Mutex
	events []string
}

func (a *memAudit) Record(event, subject, detail string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, event+" "+subject+" "+detail)
}

func (a *memAudit) contains(substr string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.events {
		if strings.Contains(e, substr) {
			return true
		}
	}
	return false
}

// policyAuthorizer is a test ChainAuthorizer over a bare local policy:
// closed world, so only an explicit permit admits the caller.
type policyAuthorizer struct{ policy *authz.Policy }

func (a policyAuthorizer) AuthorizeChain(_ context.Context, peer gss.Peer, resource, action string) (string, error) {
	if a.policy.Evaluate(authz.Request{Subject: peer.Identity, Resource: resource, Action: action}) != authz.Permit {
		return "", errors.New("local policy does not permit")
	}
	return "", nil
}

type bed struct {
	auth      *ca.Authority
	ts        *gridcert.TrustStore
	alice     *gridcert.Credential
	host      *gridcert.Credential
	container *Container
	client    *Client
	audit     *memAudit
}

func newBed(t testing.TB, authorizer ChainAuthorizer) *bed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host c1"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	audit := &memAudit{}
	container, err := NewContainer(ContainerConfig{
		Name:            "c1",
		Credential:      host,
		TrustStore:      ts,
		ChainAuthorizer: authorizer,
		Audit:           audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Transport:  soap.Pipe(container.Dispatcher()),
		Credential: alice,
		TrustStore: ts,
	}
	return &bed{auth: auth, ts: ts, alice: alice, host: host, container: container, client: client, audit: audit}
}

func TestSignedInvocation(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	reply, err := b.client.InvokeSigned("echo", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "/O=Grid/CN=Alice:hi" {
		t.Fatalf("reply = %q", reply)
	}
	if !b.audit.contains("invoke /O=Grid/CN=Alice echo/echo") {
		t.Fatalf("audit missing invoke event: %v", b.audit.events)
	}
}

func TestSecureConversationInvocation(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	reply, err := b.client.InvokeSecure("echo", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "/O=Grid/CN=Alice:hi" {
		t.Fatalf("reply = %q", reply)
	}
	// Second call reuses the conversation.
	if _, err := b.client.InvokeSecure("echo", "echo", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got := b.container.ConversationManager().Sessions(); got != 1 {
		t.Fatalf("sessions = %d, want 1 (reused)", got)
	}
}

func TestUnsignedInvocationRejected(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	env := soap.NewEnvelope("ogsa/echo/echo", []byte("x"))
	if _, err := b.container.Dispatcher().Dispatch(env); err == nil {
		t.Fatal("unsigned call accepted")
	}
	if !b.audit.contains("auth-fail") {
		t.Fatal("auth failure not audited")
	}
}

func TestAuthorizationPipeline(t *testing.T) {
	pol := authz.NewPolicy(authz.DenyOverrides).Add(authz.Rule{
		Effect:    authz.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"ogsa:echo"},
		Actions:   []string{"echo", "FindServiceData"},
	})
	b := newBed(t, policyAuthorizer{pol})
	b.container.Publish("echo", newEchoService())

	if _, err := b.client.InvokeSigned("echo", "echo", []byte("x")); err != nil {
		t.Fatalf("permitted op denied: %v", err)
	}
	// Unlisted op denied.
	if _, err := b.client.InvokeSigned("echo", "Destroy", nil); err == nil {
		t.Fatal("unpermitted op allowed")
	}
	if !b.audit.contains("authz-deny") {
		t.Fatal("denial not audited")
	}
}

func TestServiceDataQuery(t *testing.T) {
	sd := NewServiceData()
	sd.Set("jobState", []byte("Active"))
	v, ok := sd.Query("jobState")
	if !ok || string(v) != "Active" {
		t.Fatalf("query = %q %v", v, ok)
	}
	if _, ok := sd.Query("missing"); ok {
		t.Fatal("query invented element")
	}
}

func TestDestroyedServiceRejects(t *testing.T) {
	b := newBed(t, nil)
	svc := newEchoService()
	b.container.Publish("d", svc)
	if _, err := b.client.InvokeSigned("d", "Destroy", nil); err != nil {
		t.Fatal(err)
	}
	_, err := b.client.InvokeSigned("d", "echo", nil)
	if err == nil || !strings.Contains(err.Error(), "destroyed") {
		t.Fatalf("destroyed service: %v", err)
	}
}

func TestLimitedProxyRejectedByJobContainer(t *testing.T) {
	// A container with RejectLimited (job-creating) refuses limited
	// proxies in both stateless and stateful modes.
	auth, _ := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	ts := gridcert.NewTrustStore()
	ts.AddRoot(auth.Certificate())
	alice, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	host, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host jc"), 12*time.Hour)
	container, err := NewContainer(ContainerConfig{
		Name: "jc", Credential: host, TrustStore: ts, RejectLimited: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.Publish("echo", newEchoService())
	lim, err := proxy.New(alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Transport: soap.Pipe(container.Dispatcher()), Credential: lim, TrustStore: ts}
	if _, err := client.InvokeSigned("echo", "echo", nil); err == nil {
		t.Fatal("limited proxy accepted for signed call")
	}
	if _, err := client.InvokeSecure("echo", "echo", nil); err == nil {
		t.Fatal("limited proxy accepted for conversation")
	}
	// A full proxy works.
	full, _ := proxy.New(alice, proxy.Options{})
	client2 := &Client{Transport: soap.Pipe(container.Dispatcher()), Credential: full, TrustStore: ts}
	if _, err := client2.InvokeSigned("echo", "echo", nil); err != nil {
		t.Fatal(err)
	}
}

// TestFetchContainerPolicy: the container publishes its security
// policy at wspolicy/Get (§4.3) — both mechanisms, in preference order,
// and its trust roots — to a raw envelope decoded with encoding/xml.
func TestFetchContainerPolicy(t *testing.T) {
	b := newBed(t, nil)
	reply, err := b.client.Transport(soap.NewEnvelope(wssec.ActionGetPolicy, nil))
	if err != nil {
		t.Fatal(err)
	}
	var pol wssec.PolicyDocument
	if err := xml.Unmarshal(reply.Body, &pol); err != nil {
		t.Fatal(err)
	}
	fp := b.auth.Certificate().Fingerprint()
	if pol.Service != "c1" || len(pol.Mechanisms) != 2 || pol.Mechanisms[0] != wssec.MechSecureConversation ||
		len(pol.TrustRoots) != 1 || pol.TrustRoots[0] != hex.EncodeToString(fp[:]) {
		t.Fatalf("policy = %+v", pol)
	}
}

func TestUnknownHandleAndMalformedAction(t *testing.T) {
	b := newBed(t, nil)
	if _, err := b.client.InvokeSigned("ghost", "op", nil); !errorContains(err, "no such service") {
		t.Fatalf("unknown handle: %v", err)
	}
	env := soap.NewEnvelope("ogsa/nopslash", nil)
	if _, err := b.container.Dispatcher().Dispatch(env); err == nil {
		t.Fatal("malformed action accepted")
	}
}

func errorContains(err error, substr string) bool {
	return err != nil && strings.Contains(err.Error(), substr)
}

func TestConcurrentInvocations(t *testing.T) {
	b := newBed(t, nil)
	b.container.Publish("echo", newEchoService())
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.client.InvokeSigned("echo", "echo", []byte("x")); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkSignedInvocation(b *testing.B) {
	bd := newBed(b, nil)
	bd.container.Publish("echo", newEchoService())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bd.client.InvokeSigned("echo", "echo", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecureInvocation(b *testing.B) {
	bd := newBed(b, nil)
	bd.container.Publish("echo", newEchoService())
	if _, err := bd.client.InvokeSecure("echo", "echo", []byte("warm")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bd.client.InvokeSecure("echo", "echo", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
}
