// Integration coverage for the session pool: one pool shared by
// clients of different credentials keys their sessions apart. The pool
// under concurrent load is pkg/gsi's TestIntegrationPooledClientUnderLoad,
// which tightens the pool's limits from inside the package.
package repro

import (
	"context"
	"testing"
	"time"

	"repro/pkg/gsi"
)

type poolWorld struct {
	ca    *gsi.CA
	env   *gsi.Environment
	alice *gsi.Credential
	host  *gsi.Credential
}

func newPoolWorld(t testing.TB) poolWorld {
	t.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host pool"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return poolWorld{ca: authority, env: env, alice: alice, host: host}
}

// TestIntegrationPoolSharedAcrossClients: one pool serving clients with
// different credentials must key their sessions apart — Bob never rides
// Alice's authenticated connection.
func TestIntegrationPoolSharedAcrossClients(t *testing.T) {
	w := newPoolWorld(t)
	bob, err := w.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server, err := w.env.NewServer(w.host)
	if err != nil {
		t.Fatal(err)
	}
	whoami := func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return []byte(peer.Identity.String()), nil
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0", whoami)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	pool := gsi.NewSessionPool()
	defer pool.Close()
	clientA, err := w.env.NewClient(w.alice, gsi.WithSessionPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	clientB, err := w.env.NewClient(bob, gsi.WithSessionPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Interleave so a naive pool would hand Bob Alice's parked session.
	for i := 0; i < 3; i++ {
		gotA, err := clientA.Exchange(ctx, ep.Addr(), "whoami", nil)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := clientB.Exchange(ctx, ep.Addr(), "whoami", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotA) != "/O=Grid/CN=Alice" || string(gotB) != "/O=Grid/CN=Bob" {
			t.Fatalf("identities through shared pool: %q / %q", gotA, gotB)
		}
	}
	if st := pool.Stats(); st.Dials != 2 {
		t.Fatalf("dials = %d, want 2 (credentials key separately)", st.Dials)
	}
}
