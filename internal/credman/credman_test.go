package credman

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/myproxy"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/wssec"
)

type world struct {
	authority *ca.Authority
	trust     *gridcert.TrustStore
	user      *gridcert.Credential
	initial   *gridcert.Credential
}

func newWorld(t testing.TB, proxyLifetime time.Duration) world {
	t.Helper()
	authority, err := ca.New(gridcert.MustParseName("/O=Grid/CN=Credman CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	if err := trust.AddRoot(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	user, err := authority.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := proxy.New(user, proxy.Options{Lifetime: proxyLifetime})
	if err != nil {
		t.Fatal(err)
	}
	return world{authority: authority, trust: trust, user: user, initial: initial}
}

// scripted hands out pre-made successors in order, then fails.
func scripted(succ ...*gridcert.Credential) Source {
	return sourceFunc(func(ctx context.Context, _ *gridcert.Credential) (*gridcert.Credential, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(succ) == 0 {
			return nil, errors.New("scripted source exhausted")
		}
		c := succ[0]
		succ = succ[1:]
		return c, nil
	})
}

func TestManagerRenewPublishesAndRunsHooks(t *testing.T) {
	w := newWorld(t, time.Hour)
	successor, err := proxy.New(w.user, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(w.initial, Config{Source: scripted(successor)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var hookOld, hookNext, hookCurrent *gridcert.Credential
	m.OnRotate(func(old, next *gridcert.Credential) {
		hookOld, hookNext = old, next
		// Hooks run before publication: dependent state is rekeyed
		// before any caller can observe the successor.
		hookCurrent = m.Current()
	})

	if got := m.Current(); got != w.initial {
		t.Fatalf("Current before renewal = %v, want the initial credential", got.Identity())
	}
	next, err := m.Renew(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if next != successor || m.Current() != successor {
		t.Fatal("renewal did not publish the successor")
	}
	if hookOld != w.initial || hookNext != successor {
		t.Fatal("rotation hook did not receive (old, next)")
	}
	if hookCurrent != w.initial {
		t.Fatal("successor was visible through Current before the hooks finished")
	}
	if st := m.Stats(); st.Rotations != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 rotation, 0 failures", st)
	}
	// The scripted source is exhausted: the failure must count and the
	// published credential must survive.
	if _, err := m.Renew(context.Background()); err == nil {
		t.Fatal("expected exhausted source to fail")
	}
	if st := m.Stats(); st.Failures != 1 || m.Current() != successor {
		t.Fatalf("failed renewal must not unpublish (stats %+v)", st)
	}
}

func TestManagerRejectsUnusableSuccessors(t *testing.T) {
	w := newWorld(t, time.Hour)
	base := time.Now()
	// An "expired" successor: validate with a clock far past its NotAfter.
	expired, err := proxy.New(w.user, proxy.Options{Lifetime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"nil credential": {Source: sourceFunc(func(context.Context, *gridcert.Credential) (*gridcert.Credential, error) {
			return nil, nil
		})},
		"expired": {
			Source: scripted(expired),
			Now:    func() time.Time { return base.Add(time.Hour) },
		},
	} {
		m, err := NewManager(w.initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Renew(context.Background()); err == nil {
			t.Errorf("%s: expected renewal to be rejected", name)
		}
		if m.Current() != w.initial {
			t.Errorf("%s: unusable successor was published", name)
		}
		if st := m.Stats(); st.Failures != 1 {
			t.Errorf("%s: failures = %d, want 1", name, st.Failures)
		}
		m.Close()
	}
}

func TestManagerBackgroundRotationAndBackoff(t *testing.T) {
	w := newWorld(t, 150*time.Millisecond)
	var attempts atomic.Int64
	src := sourceFunc(func(ctx context.Context, _ *gridcert.Credential) (*gridcert.Credential, error) {
		// Fail twice to exercise the retry backoff, then deliver.
		if attempts.Add(1) <= 2 {
			return nil, errors.New("repository briefly down")
		}
		return proxy.New(w.user, proxy.Options{Lifetime: time.Hour})
	})
	m, err := NewManager(w.initial, Config{
		Source:   src,
		Horizon:  100 * time.Millisecond,
		Jitter:   20 * time.Millisecond,
		RetryMin: 5 * time.Millisecond,
		RetryMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	m.Start() // idempotent

	deadline := time.After(5 * time.Second)
	for m.Current() == w.initial {
		select {
		case <-deadline:
			t.Fatalf("no rotation after 5s (attempts=%d)", attempts.Load())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if st := m.Stats(); st.Rotations < 1 || st.Failures < 2 {
		t.Fatalf("stats = %+v, want >=1 rotation after >=2 failures", st)
	}
	if !m.Current().Identity().Equal(w.user.Identity()) {
		t.Fatal("successor carries the wrong identity")
	}
}

func TestManagerCloseStopsRenewal(t *testing.T) {
	w := newWorld(t, time.Hour)
	m, err := NewManager(w.initial, Config{Source: scripted()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if _, err := m.Renew(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Renew after Close = %v, want ErrClosed", err)
	}
	if m.Current() != w.initial {
		t.Fatal("Current must keep answering after Close")
	}
}

func TestMyProxySourceRenews(t *testing.T) {
	w := newWorld(t, time.Hour)
	repo := myproxy.NewServer()
	deposit, err := proxy.New(w.user, proxy.Options{Lifetime: 6 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.StoreContext(context.Background(), "alice", "open sesame", deposit, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	src := MyProxySource{Repo: repo, Username: "alice", Passphrase: "open sesame", Lifetime: time.Hour}
	next, err := src.Renew(context.Background(), w.initial)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Identity().Equal(w.user.Identity()) {
		t.Fatalf("renewed identity = %s, want %s", next.Identity(), w.user.Identity())
	}
	if _, err := w.trust.Verify(next.Chain, gridcert.VerifyOptions{}); err != nil {
		t.Fatalf("renewed chain does not validate: %v", err)
	}
	if remaining := time.Until(next.Leaf().NotAfter); remaining > time.Hour+time.Minute {
		t.Fatalf("renewed proxy lifetime %s exceeds the requested hour", remaining)
	}

	bad := MyProxySource{Repo: repo, Username: "alice", Passphrase: "wrong", Lifetime: time.Hour}
	if _, err := bad.Renew(context.Background(), w.initial); !errors.Is(err, myproxy.ErrBadPassphrase) {
		t.Fatalf("bad passphrase = %v, want ErrBadPassphrase", err)
	}
}

func TestLocalSourceRenews(t *testing.T) {
	w := newWorld(t, time.Hour)
	src := LocalSource{Signer: w.user, Options: proxy.Options{Lifetime: 30 * time.Minute}}
	next, err := src.Renew(context.Background(), w.initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.trust.Verify(next.Chain, gridcert.VerifyOptions{}); err != nil {
		t.Fatalf("renewed chain does not validate: %v", err)
	}
	if next.Leaf().Fingerprint() == w.initial.Leaf().Fingerprint() {
		t.Fatal("successor must be a fresh proxy, not the original")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.Renew(canceled, w.initial); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled renew = %v, want context.Canceled", err)
	}
}

// delegationInvoke wires an EndpointSource to a container-hosted
// delegation service over an in-process secure conversation.
func delegationInvoke(t testing.TB, w world, caller *gridcert.Credential, container *ogsa.Container) func(ctx context.Context, op string, body []byte) ([]byte, error) {
	t.Helper()
	cl := &ogsa.Client{
		Transport:  soap.Pipe(container.Dispatcher()),
		Credential: caller,
		TrustStore: w.trust,
	}
	return func(ctx context.Context, op string, body []byte) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return cl.InvokeSecure(ogsa.DelegationHandle, op, body)
	}
}

func TestEndpointSourceDepositAndRenew(t *testing.T) {
	w := newWorld(t, time.Hour)
	host, err := w.authority.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host delegation.example.org"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	container, err := ogsa.NewContainer(ogsa.ContainerConfig{
		Name:       "delegation-host",
		Credential: host,
		TrustStore: w.trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	container.EnableDelegation(ogsa.DelegationConfig{MaxLifetime: 2 * time.Hour})

	invoke := delegationInvoke(t, w, w.initial, container)
	if err := Deposit(context.Background(), invoke, w.initial, 6*time.Hour, 90*time.Minute); err != nil {
		t.Fatal(err)
	}

	src := EndpointSource{Invoke: invoke, Lifetime: time.Hour}
	next, err := src.Renew(context.Background(), w.initial)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Identity().Equal(w.user.Identity()) {
		t.Fatalf("endpoint successor identity = %s, want %s", next.Identity(), w.user.Identity())
	}
	if _, err := w.trust.Verify(next.Chain, gridcert.VerifyOptions{}); err != nil {
		t.Fatalf("endpoint successor does not validate: %v", err)
	}
	// The successor must actually be able to authenticate.
	m, err := NewManager(w.initial, Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Renew(context.Background()); err != nil {
		t.Fatal(err)
	}
	// An establishment under the rotated credential proves the
	// manager's published successor carries a working key.
	conv, err := wssec.EstablishConversation(
		gss.Config{Credential: m.Current(), TrustStore: w.trust},
		soap.Pipe(container.Dispatcher()),
	)
	if err != nil {
		t.Fatalf("handshake under rotated credential: %v", err)
	}
	if !conv.Peer().Identity.Equal(host.Identity()) {
		t.Fatalf("peer = %s, want the container host", conv.Peer().Identity)
	}
}

// When the source can only mint credentials shorter than the horizon,
// every successor is already inside the renewal window — the loop must
// pace itself at RetryMin instead of spinning a renewal storm.
func TestManagerPacesWhenSuccessorsInsideHorizon(t *testing.T) {
	w := newWorld(t, 200*time.Millisecond)
	var renews atomic.Int64
	src := sourceFunc(func(ctx context.Context, _ *gridcert.Credential) (*gridcert.Credential, error) {
		renews.Add(1)
		return proxy.New(w.user, proxy.Options{Lifetime: 200 * time.Millisecond})
	})
	m, err := NewManager(w.initial, Config{
		Source:   src,
		Horizon:  time.Hour, // always inside the window
		RetryMin: 50 * time.Millisecond,
		RetryMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	time.Sleep(300 * time.Millisecond)
	m.Close()
	if n := renews.Load(); n > 20 {
		t.Fatalf("renewal loop spun %d times in 300ms; want RetryMin pacing (~6)", n)
	}
	if n := renews.Load(); n == 0 {
		t.Fatal("loop never renewed")
	}
}

// A hook registered through OnRotateWhile that returns false is removed
// and never fires again.
func TestOnRotateWhilePrunes(t *testing.T) {
	w := newWorld(t, time.Hour)
	mk := func() *gridcert.Credential {
		c, err := proxy.New(w.user, proxy.Options{Lifetime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	m, err := NewManager(w.initial, Config{Source: scripted(mk(), mk(), mk())})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var oneShot, always int
	m.OnRotateWhile(func(_, _ *gridcert.Credential) bool { oneShot++; return false })
	m.OnRotate(func(_, _ *gridcert.Credential) { always++ })
	for i := 0; i < 3; i++ {
		if _, err := m.Renew(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if oneShot != 1 {
		t.Fatalf("self-pruning hook fired %d times, want 1", oneShot)
	}
	if always != 3 {
		t.Fatalf("persistent hook fired %d times, want 3", always)
	}
}

// sourceFunc adapts a function to Source.
type sourceFunc func(ctx context.Context, current *gridcert.Credential) (*gridcert.Credential, error)

func (f sourceFunc) Renew(ctx context.Context, current *gridcert.Credential) (*gridcert.Credential, error) {
	return f(ctx, current)
}
