package ogsa

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/wire"
)

type recordingSink struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingSink) Record(event, subject, detail string) {
	r.mu.Lock()
	r.events = append(r.events, event+"|"+subject+"|"+detail)
	r.mu.Unlock()
}

func (r *recordingSink) has(prefix string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if strings.HasPrefix(e, prefix) {
			return true
		}
	}
	return false
}

type delegationWorld struct {
	trust  *gridcert.TrustStore
	alice  *gridcert.Credential
	proxy  *gridcert.Credential
	mallet *gridcert.Credential
	svc    *DelegationService
	audit  *recordingSink
}

func newDelegationWorld(t *testing.T, cfg DelegationConfig) delegationWorld {
	t.Helper()
	authority, err := ca.New(gridcert.MustParseName("/O=Grid/CN=Deleg CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	aliceProxy, err := proxy.New(alice, proxy.Options{Lifetime: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	mallet, err := authority.NewEntity(gridcert.MustParseName("/O=Grid/CN=Mallet"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	audit := &recordingSink{}
	if cfg.Audit == nil {
		cfg.Audit = audit
	}
	return delegationWorld{
		trust:  trust,
		alice:  alice,
		proxy:  aliceProxy,
		mallet: mallet,
		svc:    NewDelegationService(cfg),
		audit:  audit,
	}
}

// call builds a conversation-secured Call from a credential's identity.
func delegCall(cred *gridcert.Credential, op string, body []byte) *Call {
	return &Call{
		Service:      DelegationHandle,
		Op:           op,
		Body:         body,
		Caller:       Identity{Name: cred.Identity()},
		Conversation: true,
	}
}

// depositFor runs the full Initiate/Deposit exchange for cred.
func depositFor(t *testing.T, svc *DelegationService, cred *gridcert.Credential, lifetime, max time.Duration) {
	t.Helper()
	reqBytes, err := svc.Invoke(delegCall(cred, DelegationOpInitiate,
		wire.NewEncoder().I64(int64(lifetime/time.Second)).Finish()))
	if err != nil {
		t.Fatal(err)
	}
	req, err := proxy.DecodeDelegationRequest(reqBytes)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := proxy.HandleDelegation(cred, req, proxy.Options{Lifetime: lifetime})
	if err != nil {
		t.Fatal(err)
	}
	body := wire.NewEncoder().Bytes(reply.Encode()).I64(int64(max / time.Second)).Finish()
	if _, err := svc.Invoke(delegCall(cred, DelegationOpDeposit, body)); err != nil {
		t.Fatal(err)
	}
}

func TestDelegationDepositAndRetrieve(t *testing.T) {
	w := newDelegationWorld(t, DelegationConfig{MaxLifetime: 2 * time.Hour})
	depositFor(t, w.svc, w.proxy, 4*time.Hour, time.Hour)
	if deposits(w.svc) != 1 {
		t.Fatalf("deposits = %d, want 1", deposits(w.svc))
	}

	// Retrieve a successor: lifetime must honor the tightest cap (the
	// per-deposit hour, not the requested 12h or the service 2h).
	delegatee, req, err := proxy.NewDelegatee(12*time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	req.Lifetime = 12 * time.Hour
	out, err := w.svc.Invoke(delegCall(w.proxy, DelegationOpRetrieve, req.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := proxy.DecodeDelegationReply(out)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := delegatee.Accept(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !cred.Identity().Equal(w.alice.Identity()) {
		t.Fatalf("retrieved identity = %s, want Alice", cred.Identity())
	}
	if _, err := w.trust.Verify(cred.Chain, gridcert.VerifyOptions{}); err != nil {
		t.Fatalf("retrieved chain does not validate: %v", err)
	}
	if remaining := time.Until(cred.Leaf().NotAfter); remaining > time.Hour+time.Minute {
		t.Fatalf("retrieved proxy lives %s, want <= the 1h deposit cap", remaining)
	}

	info, err := w.svc.Invoke(delegCall(w.proxy, DelegationOpInfo, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(info), "max=1h") {
		t.Fatalf("info = %q, want the per-deposit cap", info)
	}
	if !w.audit.has("delegation-deposit|") || !w.audit.has("delegation-retrieve|") {
		t.Fatalf("audit trail incomplete: %v", w.audit.events)
	}
}

func TestDelegationRefusals(t *testing.T) {
	w := newDelegationWorld(t, DelegationConfig{})
	initBody := wire.NewEncoder().I64(0).Finish()

	// Not over a secure conversation.
	signedCall := delegCall(w.proxy, DelegationOpInitiate, initBody)
	signedCall.Conversation = false
	if _, err := w.svc.Invoke(signedCall); err == nil {
		t.Fatal("per-message-signed call must be refused")
	}

	// Anonymous.
	anon := &Call{Service: DelegationHandle, Op: DelegationOpInitiate, Body: initBody,
		Caller: Identity{Anonymous: true}, Conversation: true}
	if _, err := w.svc.Invoke(anon); err == nil {
		t.Fatal("anonymous caller must be refused")
	}

	// Limited proxies must not beget credentials.
	limited := delegCall(w.proxy, DelegationOpInitiate, initBody)
	limited.Caller.Limited = true
	if _, err := w.svc.Invoke(limited); err == nil {
		t.Fatal("limited-proxy caller must be refused")
	}

	// Retrieve without a deposit.
	_, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.Invoke(delegCall(w.proxy, DelegationOpRetrieve, req.Encode())); !errors.Is(err, ErrNoDeposit) {
		t.Fatalf("retrieve without deposit = %v, want ErrNoDeposit", err)
	}

	// Deposit without Initiate.
	body := wire.NewEncoder().Bytes([]byte("junk")).I64(0).Finish()
	if _, err := w.svc.Invoke(delegCall(w.proxy, DelegationOpDeposit, body)); err == nil {
		t.Fatal("deposit of junk without Initiate must fail")
	}

	if !w.audit.has("delegation-refused|") {
		t.Fatalf("refusals must audit: %v", w.audit.events)
	}
}

// A subject can only retrieve below its own deposit: Mallet, fully
// authenticated, must not obtain proxies for Alice — and a deposit
// whose chain does not match the channel identity is rejected outright.
func TestDelegationIsolatesSubjects(t *testing.T) {
	w := newDelegationWorld(t, DelegationConfig{})
	depositFor(t, w.svc, w.proxy, 2*time.Hour, time.Hour)

	_, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.Invoke(delegCall(w.mallet, DelegationOpRetrieve, req.Encode())); !errors.Is(err, ErrNoDeposit) {
		t.Fatalf("cross-subject retrieve = %v, want ErrNoDeposit", err)
	}

	// Mallet initiates, then deposits a chain signed by Alice's proxy:
	// the channel identity (Mallet) and the chain identity (Alice)
	// disagree, so the deposit is refused.
	reqBytes, err := w.svc.Invoke(delegCall(w.mallet, DelegationOpInitiate,
		wire.NewEncoder().I64(int64(time.Hour/time.Second)).Finish()))
	if err != nil {
		t.Fatal(err)
	}
	mreq, err := proxy.DecodeDelegationRequest(reqBytes)
	if err != nil {
		t.Fatal(err)
	}
	stolen, err := proxy.HandleDelegation(w.proxy, mreq, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	body := wire.NewEncoder().Bytes(stolen.Encode()).I64(0).Finish()
	if _, err := w.svc.Invoke(delegCall(w.mallet, DelegationOpDeposit, body)); err == nil {
		t.Fatal("identity-mismatched deposit must be refused")
	}
	if deposits(w.svc) != 1 {
		t.Fatalf("deposits = %d, want only Alice's", deposits(w.svc))
	}
}

// An expired deposit is refused (and dropped) rather than minting dead
// proxies.
func TestDelegationExpiredDeposit(t *testing.T) {
	base := time.Now()
	clock := base
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	w := newDelegationWorld(t, DelegationConfig{Now: now})
	depositFor(t, w.svc, w.proxy, time.Hour, time.Hour)

	mu.Lock()
	clock = base.Add(2 * time.Hour)
	mu.Unlock()

	_, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.Invoke(delegCall(w.proxy, DelegationOpRetrieve, req.Encode())); err == nil {
		t.Fatal("retrieve below an expired deposit must fail")
	}
	if deposits(w.svc) != 0 {
		t.Fatalf("expired deposit must be dropped, have %d", deposits(w.svc))
	}
}

// EnableDelegation publishes the port type on the container and routes
// conversation-secured calls to it end to end.
func TestContainerEnableDelegation(t *testing.T) {
	w := newDelegationWorld(t, DelegationConfig{})
	authority, err := ca.New(gridcert.MustParseName("/O=Grid/CN=Host CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.trust.AddRoot(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host c.example.org"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	audit := &recordingSink{}
	container, err := NewContainer(ContainerConfig{
		Name:       "deleg-container",
		Credential: host,
		TrustStore: w.trust,
		Audit:      audit,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.EnableDelegation(DelegationConfig{})
	if _, ok := container.Lookup(DelegationHandle); !ok {
		t.Fatal("delegation handle not published")
	}

	cl := &Client{
		Transport:  soap.Pipe(container.Dispatcher()),
		Credential: w.proxy,
		TrustStore: w.trust,
	}
	reqBytes, err := cl.InvokeSecure(DelegationHandle, DelegationOpInitiate,
		wire.NewEncoder().I64(int64(time.Hour/time.Second)).Finish())
	if err != nil {
		t.Fatal(err)
	}
	req, err := proxy.DecodeDelegationRequest(reqBytes)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := proxy.HandleDelegation(w.proxy, req, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	body := wire.NewEncoder().Bytes(reply.Encode()).I64(0).Finish()
	if _, err := cl.InvokeSecure(DelegationHandle, DelegationOpDeposit, body); err != nil {
		t.Fatal(err)
	}
	// The inherited container audit sink sees the delegation events.
	if !audit.has("delegation-deposit|") {
		t.Fatalf("container audit sink missed the deposit: %v", audit.events)
	}

	// The same deposit over the per-message-signed pipeline must be
	// refused: stateless signatures are not a secure conversation.
	if _, err := cl.InvokeSigned(DelegationHandle, DelegationOpInitiate,
		wire.NewEncoder().I64(0).Finish()); err == nil {
		t.Fatal("signed-pipeline delegation must be refused")
	}
}

// deposits counts the subjects with a stored delegation.
func deposits(s *DelegationService) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deposits)
}
