package gsi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

type credmanWorld struct {
	env   *Environment
	ca    *CA
	alice *Credential
	host  *Credential
}

func newCredmanWorld(t testing.TB) credmanWorld {
	t.Helper()
	authority, err := NewCA("/O=Grid/CN=Rotation CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvironment(WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(MustParseName("/O=Grid/CN=host rot.example.org"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return credmanWorld{env: env, ca: authority, alice: alice, host: host}
}

func (w credmanWorld) proxy(t testing.TB, lifetime time.Duration) *Credential {
	t.Helper()
	c, err := NewProxy(w.alice, ProxyOptions{Lifetime: lifetime})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCredentialManagerFacade(t *testing.T) {
	w := newCredmanWorld(t)
	initial := w.proxy(t, time.Hour)
	cm, err := w.env.NewCredentialManager(initial,
		DelegationRenewal(w.alice, ProxyOptions{Lifetime: time.Hour}),
		WithRenewalHorizon(10*time.Minute),
		WithRenewalJitter(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	if cm.Current() != initial {
		t.Fatal("manager does not start on the initial credential")
	}
	next, err := cm.Renew(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cm.Current() != next || next == initial {
		t.Fatal("rotation did not publish a successor")
	}
	if st := cm.Stats(); st.Rotations != 1 {
		t.Fatalf("stats = %+v, want 1 rotation", st)
	}
}

func TestCredentialManagerOptionValidation(t *testing.T) {
	w := newCredmanWorld(t)
	initial := w.proxy(t, time.Hour)
	src := DelegationRenewal(w.alice, ProxyOptions{Lifetime: time.Hour})
	if _, err := w.env.NewCredentialManager(nil, src); err == nil {
		t.Fatal("nil initial credential must be rejected")
	}
	if _, err := w.env.NewCredentialManager(initial, nil); err == nil {
		t.Fatal("nil source must be rejected")
	}
	if _, err := w.env.NewCredentialManager(initial, src, WithRenewalHorizon(-time.Second)); err == nil {
		t.Fatal("negative horizon must be rejected")
	}
}

func TestManagedClientCredentialIsDynamic(t *testing.T) {
	w := newCredmanWorld(t)
	initial := w.proxy(t, time.Hour)
	cm, err := w.env.NewCredentialManager(initial, DelegationRenewal(w.alice, ProxyOptions{Lifetime: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	if _, err := w.env.NewClient(initial, WithCredentialManager(cm)); err == nil {
		t.Fatal("a managed client must not also take a fixed credential")
	}
	client, err := w.env.NewClient(nil, WithCredentialManager(cm))
	if err != nil {
		t.Fatal(err)
	}
	if client.Credential() != initial {
		t.Fatal("managed client does not read the manager's credential")
	}
	next, err := cm.Renew(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if client.Credential() != next {
		t.Fatal("rotation is not visible through the client")
	}
	// The dynamic credential authenticates: establish against the host.
	ictx, actx, err := client.Establish(context.Background(), ContextConfig{
		Credential: w.host,
		TrustStore: w.env.Trust(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !actx.Peer().Identity.Equal(w.alice.Identity()) {
		t.Fatalf("acceptor sees %s, want Alice", actx.Peer().Identity)
	}
	_ = ictx
}

// Rotation on a pooling client drains the replaced credential's
// sessions: idle ones close immediately, checked-out ones are discarded
// at return, and the next checkout handshakes under the successor.
func TestPoolRekeyOnRotation(t *testing.T) {
	w := newCredmanWorld(t)
	initial := w.proxy(t, time.Hour)
	cm, err := w.env.NewCredentialManager(initial, DelegationRenewal(w.alice, ProxyOptions{Lifetime: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	server, err := w.env.NewServer(w.host)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	client, err := w.env.NewClient(nil, WithCredentialManager(cm), WithSessionPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	pool := client.Pool()
	defer pool.Close()

	// Warm the pool under the initial credential: hold two sessions so
	// the pool dials twice, then park one and keep one checked out
	// across the rotation — the parked one must close at rotation, the
	// held one must finish its work and be discarded at return.
	held, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	parked, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	parked.Close()
	if st := pool.Stats(); st.Idle != 1 || st.Dials != 2 {
		t.Fatalf("pool not warm: %+v", st)
	}
	warm := pool.Stats()

	if _, err := cm.Renew(ctx); err != nil {
		t.Fatal(err)
	}
	afterRotate := pool.Stats()
	if afterRotate.Idle != 0 {
		t.Fatalf("idle old-credential sessions survived rotation: %+v", afterRotate)
	}
	if afterRotate.Retired == 0 {
		t.Fatal("rotation did not retire any sessions")
	}

	// The held session still works (graceful drain, not a kill) …
	if _, err := held.Exchange(ctx, "echo", []byte("in-flight")); err != nil {
		t.Fatalf("in-flight session broken by rotation: %v", err)
	}
	// … and is discarded on return.
	retiredBefore := pool.Stats().Retired
	held.Close()
	if got := pool.Stats(); got.Retired != retiredBefore+1 {
		t.Fatalf("held session not discarded at return: %+v", got)
	}
	if got := pool.Stats().Idle; got != 0 {
		t.Fatalf("retired session was parked: idle=%d", got)
	}

	// New traffic handshakes fresh under the successor.
	if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("successor")); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if after.Dials <= warm.Dials {
		t.Fatalf("no fresh handshake under the successor: warm=%+v after=%+v", warm, after)
	}
}

// Rotation invalidates the old credential's GT3 resumption trees: the
// first exchange under the successor must run a full bootstrap, never a
// resume from a conversation the retired credential established.
func TestRotationInvalidatesResumptionTrees(t *testing.T) {
	w := newCredmanWorld(t)
	initial := w.proxy(t, time.Hour)
	cm, err := w.env.NewCredentialManager(initial, DelegationRenewal(w.alice, ProxyOptions{Lifetime: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	server, err := w.env.NewServer(w.host, WithTransport(TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	client, err := w.env.NewClient(nil,
		WithCredentialManager(cm), WithTransport(TransportGT3()), WithSessionPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	pool := client.Pool()
	pool.maxIdle = 1
	defer pool.Close()

	// Establish a conversation, then force a re-dial (drop the idle
	// session) so the next dial resumes from the cached parent.
	sess, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exchange(ctx, "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	pool.RetireCredential(nil) // no-op: nil is ignored
	before := pool.Stats()
	if before.Resumes != 0 {
		t.Fatalf("unexpected resume before the test arranged one: %+v", before)
	}

	// Second connection while the parent is cached: must resume.
	old := cm.Current()
	sessB, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sessB.Close()
	_ = old
	if got := pool.Stats().Resumes; got == 0 {
		// The first Connect parked its session; a second checkout would
		// reuse rather than dial. Dial pressure: hold two sessions at
		// once so the pool must dial twice.
		s1, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		s2, err := client.Connect(ctx, ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		s1.Close()
		s2.Close()
		if pool.Stats().Resumes == 0 {
			t.Fatal("test harness never exercised resumption")
		}
	}

	resumesBeforeRotation := pool.Stats().Resumes
	if _, err := cm.Renew(ctx); err != nil {
		t.Fatal(err)
	}
	// Successor traffic: with the old trees invalidated and a new cache
	// scope, nothing may resume off the retired credential.
	s1, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2.Close()
	afterFirst := pool.Stats().Resumes
	// The successor's own parent may seed resumes (the second dial
	// above), but the very first dial after rotation cannot have
	// resumed — it had no live parent. So at most one of the two dials
	// resumed.
	if afterFirst-resumesBeforeRotation > 1 {
		t.Fatalf("successor traffic resumed %d times off two dials; the first must have bootstrapped",
			afterFirst-resumesBeforeRotation)
	}
}

// Pool options and credential-manager plumbing misuse surfaces as
// errors, not silent misbehavior.
func TestCredentialManagerOptionErrors(t *testing.T) {
	w := newCredmanWorld(t)
	if _, err := w.env.NewClient(nil, WithCredentialManager(nil)); err == nil {
		t.Fatal("nil manager must be rejected")
	}
	if _, err := w.env.NewClient(nil); err == nil || !strings.Contains(err.Error(), "unless managed") {
		t.Fatalf("unmanaged nil-credential client = %v", err)
	}
	var e *Error
	_, err := w.env.NewClient(nil)
	if !errors.As(err, &e) {
		t.Fatal("facade errors must be *gsi.Error")
	}
}

// The rotation→rekey hook is registered once per (manager, pool) pair
// and prunes itself once the pool is closed, so short-lived pooled
// clients do not accumulate on a long-lived manager.
func TestRotationHookDedupAndSelfPrune(t *testing.T) {
	w := newCredmanWorld(t)
	cm, err := w.env.NewCredentialManager(w.proxy(t, time.Hour),
		DelegationRenewal(w.alice, ProxyOptions{Lifetime: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	shared := NewSessionPool()
	for i := 0; i < 3; i++ { // three clients, one pool: one hook
		if _, err := w.env.NewClient(nil, WithCredentialManager(cm), WithSessionPool(shared)); err != nil {
			t.Fatal(err)
		}
	}
	cm.mu.Lock()
	bound := len(cm.pools)
	cm.mu.Unlock()
	if bound != 1 {
		t.Fatalf("bound pools = %d, want 1 (dedup per pool)", bound)
	}

	shared.Close()
	if _, err := cm.Renew(context.Background()); err != nil {
		t.Fatal(err)
	}
	cm.mu.Lock()
	bound = len(cm.pools)
	cm.mu.Unlock()
	if bound != 0 {
		t.Fatalf("hook for a closed pool survived rotation: %d bound", bound)
	}
	// Further rotations are fine with no pools bound.
	if _, err := cm.Renew(context.Background()); err != nil {
		t.Fatal(err)
	}
}
