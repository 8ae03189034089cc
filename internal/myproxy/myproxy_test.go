package myproxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/proxy"
)

type bed struct {
	trust *gridcert.TrustStore
	alice *gridcert.Credential
	srv   *Server
}

func newBed(t testing.TB) *bed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 7*24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &bed{trust: trust, alice: alice, srv: NewServer()}
}

// store deposits a week-long proxy for alice.
func (b *bed) store(t testing.TB, pass string) {
	t.Helper()
	deposit, err := proxy.New(b.alice, proxy.Options{Lifetime: 7 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.srv.StoreContext(context.Background(), "alice", pass, deposit, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRetrieve(t *testing.T) {
	b := newBed(t)
	b.store(t, "pw")

	delegatee, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := delegatee.Accept(reply)
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.trust.Verify(cred.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatalf("retrieved credential invalid: %v", err)
	}
	if info.Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("identity = %q", info.Identity)
	}
	if info.ProxyDepth != 2 { // stored proxy + retrieved proxy
		t.Fatalf("proxy depth = %d", info.ProxyDepth)
	}
	// Requested 1h lifetime is honoured (leaf expires within ~1h).
	life := time.Until(cred.Leaf().NotAfter)
	if life > 90*time.Minute {
		t.Fatalf("retrieved lifetime %v exceeds request", life)
	}
}

func TestBadPassphraseAndLockout(t *testing.T) {
	b := newBed(t)
	b.store(t, "pw")
	_, req, _ := proxy.NewDelegatee(time.Hour, false)
	for i := 0; i < maxFailures; i++ {
		if _, err := b.srv.RetrieveContext(context.Background(), "alice", "wrong", req); !errors.Is(err, ErrBadPassphrase) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	// Now locked even with the right passphrase.
	if _, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req); !errors.Is(err, ErrLocked) {
		t.Fatalf("after lockout: %v", err)
	}
}

func TestFailureCounterResets(t *testing.T) {
	b := newBed(t)
	b.store(t, "pw")
	_, req, _ := proxy.NewDelegatee(time.Hour, false)
	for i := 0; i < maxFailures-1; i++ {
		b.srv.RetrieveContext(context.Background(), "alice", "wrong", req)
	}
	if _, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req); err != nil {
		t.Fatalf("valid retrieve before lockout: %v", err)
	}
	// Counter reset: more failures allowed again.
	if _, err := b.srv.RetrieveContext(context.Background(), "alice", "wrong", req); !errors.Is(err, ErrBadPassphrase) {
		t.Fatalf("after reset: %v", err)
	}
}

func TestUnknownUser(t *testing.T) {
	b := newBed(t)
	_, req, _ := proxy.NewDelegatee(time.Hour, false)
	if _, err := b.srv.RetrieveContext(context.Background(), "ghost", "pw", req); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown user: %v", err)
	}
}

func TestStoredCredentialExpiry(t *testing.T) {
	b := newBed(t)
	deposit, err := proxy.New(b.alice, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.srv.StoreContext(context.Background(), "alice", "pw", deposit, 0); err != nil {
		t.Fatal(err)
	}
	b.srv.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	_, req, _ := proxy.NewDelegatee(time.Hour, false)
	if _, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired deposit: %v", err)
	}
}

func TestStoreValidation(t *testing.T) {
	b := newBed(t)
	deposit, _ := proxy.New(b.alice, proxy.Options{})
	if err := b.srv.StoreContext(context.Background(), "", "pw", deposit, 0); err == nil {
		t.Fatal("empty username accepted")
	}
	if err := b.srv.StoreContext(context.Background(), "alice", "", deposit, 0); err == nil {
		t.Fatal("empty passphrase accepted")
	}
}

func BenchmarkRetrieve(b *testing.B) {
	bd := newBed(b)
	bd.store(b, "pw")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, req, err := proxy.NewDelegatee(time.Hour, false)
		if err != nil {
			b.Fatal(err)
		}
		reply, err := bd.srv.RetrieveContext(context.Background(), "alice", "pw", req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Accept(reply); err != nil {
			b.Fatal(err)
		}
	}
}
