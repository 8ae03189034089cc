package myproxy

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/internal/proxy"
)

// Renewal-path coverage: the credential manager leans on RetrieveContext
// as its renewal engine, so the repository's behaviour near the edges —
// almost-expired deposits, lifetime caps, cancellations — is what
// decides whether rotation works when it matters most.

// A deposit with only minutes left still renews, but the minted proxy's
// validity is clipped to the deposit's own NotAfter: the repository can
// stretch a credential's *reach* in time, never past the power it holds.
func TestRetrieveNearlyExpiredDeposit(t *testing.T) {
	b := newBed(t)
	deposit, err := proxy.New(b.alice, proxy.Options{Lifetime: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.srv.StoreContext(context.Background(), "alice", "pw", deposit, 12*time.Hour); err != nil {
		t.Fatal(err)
	}

	delegatee, req, err := proxy.NewDelegatee(12*time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	req.Lifetime = 12 * time.Hour
	reply, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := delegatee.Accept(reply)
	if err != nil {
		t.Fatal(err)
	}
	if cred.Leaf().NotAfter.After(deposit.Leaf().NotAfter) {
		t.Fatalf("renewed proxy NotAfter %s outlives the deposit %s",
			cred.Leaf().NotAfter, deposit.Leaf().NotAfter)
	}
	if _, err := b.trust.Verify(cred.Chain, gridcert.VerifyOptions{}); err != nil {
		t.Fatalf("near-expiry renewal does not validate: %v", err)
	}

	// Once the deposit's window actually passes, retrieval reports
	// ErrExpired — the renewal loop's signal to stop retrying this
	// source.
	b.srv.now = func() time.Time { return deposit.Leaf().NotAfter.Add(time.Minute) }
	if _, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req); !errors.Is(err, ErrExpired) {
		t.Fatalf("retrieve after deposit expiry = %v, want ErrExpired", err)
	}
}

// The per-deposit maxLifetime caps every retrieval, regardless of what
// the request asks for; a tighter request wins.
func TestRetrieveLifetimeCap(t *testing.T) {
	b := newBed(t)
	deposit, err := proxy.New(b.alice, proxy.Options{Lifetime: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.srv.StoreContext(context.Background(), "alice", "pw", deposit, 2*time.Hour); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		requested time.Duration
		maxWant   time.Duration
	}{
		{"request above the cap is clamped", 24 * time.Hour, 2 * time.Hour},
		{"request below the cap is honored", 30 * time.Minute, 30 * time.Minute},
		{"zero request takes the cap", 0, 2 * time.Hour},
	} {
		delegatee, req, err := proxy.NewDelegatee(tc.requested, false)
		if err != nil {
			t.Fatal(err)
		}
		req.Lifetime = tc.requested
		reply, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cred, err := delegatee.Accept(reply)
		if err != nil {
			t.Fatal(err)
		}
		if remaining := time.Until(cred.Leaf().NotAfter); remaining > tc.maxWant+time.Minute {
			t.Errorf("%s: proxy lives %s, want <= %s", tc.name, remaining, tc.maxWant)
		}
	}
}

// Cancellation is honored at every stage of a retrieval: before the
// passphrase check and between authentication and signing. A canceled
// retrieval must not count as an authentication failure either — a
// renewal loop canceling mid-attempt must not walk the account toward
// lockout.
func TestRetrieveCancellation(t *testing.T) {
	b := newBed(t)
	b.store(t, "pw")

	_, req, err := proxy.NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}

	// Dead at entry.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.srv.RetrieveContext(canceled, "alice", "pw", req); !errors.Is(err, context.Canceled) {
		t.Fatalf("retrieve with dead context = %v, want context.Canceled", err)
	}

	// Canceled mid-retrieve, between the passphrase check and the
	// delegation signing: the server's clock callback is our hook into
	// that window (it runs after authentication, before signing).
	midCtx, midCancel := context.WithCancel(context.Background())
	b.srv.now = func() time.Time {
		midCancel()
		return time.Now()
	}
	if _, err := b.srv.RetrieveContext(midCtx, "alice", "pw", req); !errors.Is(err, context.Canceled) {
		t.Fatalf("retrieve canceled mid-flight = %v, want context.Canceled", err)
	}
	b.srv.now = time.Now
	// The cancellations above must not have dented the failure counter:
	// the very next honest retrieval succeeds.
	if _, err := b.srv.RetrieveContext(context.Background(), "alice", "pw", req); err != nil {
		t.Fatalf("retrieval after canceled attempts failed: %v", err)
	}

	// StoreContext honors cancellation too (before the slow passphrase
	// derivation).
	deposit, err := proxy.New(b.alice, proxy.Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.srv.StoreContext(canceled, "bob", "pw", deposit, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("store with dead context = %v, want context.Canceled", err)
	}
	if b.srv.Len() != 1 {
		t.Fatal("canceled store must not deposit")
	}
}
