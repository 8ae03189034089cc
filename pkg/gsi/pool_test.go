package gsi_test

import (
	"context"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// poolBed is a testbed plus a live GT2 server endpoint and a pooled
// client against it.
type poolBed struct {
	*testbed
	ep     gsi.Endpoint
	client *gsi.Client
}

func newPoolBed(t *testing.T, serverOpts []gsi.Option, clientOpts ...gsi.Option) *poolBed {
	t.Helper()
	tb := newTestbed(t)
	server, err := tb.env.NewServer(tb.host, serverOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	client, err := tb.env.NewClient(tb.alice, clientOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if p := client.Pool(); p != nil {
		t.Cleanup(func() { p.Close() })
	}
	return &poolBed{testbed: tb, ep: ep, client: client}
}

// TestPoolReuseAmortizesHandshake: repeated Exchanges through a pooled
// client ride one connection — one dial, many hits.
func TestPoolReuseAmortizesHandshake(t *testing.T) {
	pb := newPoolBed(t, nil, gsi.WithSessionPool(nil))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		out, err := pb.client.Exchange(ctx, pb.ep.Addr(), "echo", []byte("ping"))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != "ping" {
			t.Fatalf("out = %q", out)
		}
	}
	st := pb.client.Pool().Stats()
	if st.Dials != 1 {
		t.Fatalf("dials = %d, want 1 (one handshake for 10 exchanges)", st.Dials)
	}
	if st.Hits != 9 {
		t.Fatalf("hits = %d, want 9", st.Hits)
	}
}

// TestPoolPoisonedConnRetriedOnFreshSession: an idle pooled connection
// whose server vanished is poisoned on first use; Exchange transparently
// retries on a freshly dialed session against the revived endpoint.
func TestPoolPoisonedConnRetriedOnFreshSession(t *testing.T) {
	pb := newPoolBed(t, nil, gsi.WithSessionPool(nil))
	ctx := context.Background()
	if _, err := pb.client.Exchange(ctx, pb.ep.Addr(), "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	addr := pb.ep.Addr()
	// The server goes away — the parked client conn is now a dead socket
	// the I/O-free health check cannot see — and comes back on the same
	// address.
	if err := pb.ep.Close(); err != nil {
		t.Fatal(err)
	}
	server, err := pb.env.NewServer(pb.host)
	if err != nil {
		t.Fatal(err)
	}
	var ep2 gsi.Endpoint
	for i := 0; i < 50; i++ {
		ep2, err = server.Serve(ctx, addr, echoHandler)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer ep2.Close()

	out, err := pb.client.Exchange(ctx, addr, "echo", []byte("after restart"))
	if err != nil {
		t.Fatalf("exchange after server restart: %v", err)
	}
	if string(out) != "after restart" {
		t.Fatalf("out = %q", out)
	}
	st := pb.client.Pool().Stats()
	if st.Poisoned == 0 {
		t.Fatalf("stats = %+v: dead session was not detected as poisoned", st)
	}
	if st.Dials != 2 {
		t.Fatalf("dials = %d, want 2 (original + fresh retry)", st.Dials)
	}
}

// TestPoolSessionKeying: sessions established under different delegation
// modes or limited-proxy policies never mix, because they key
// separately — three clients sharing one pool, each configured
// differently, dial three times and never reuse each other's sessions.
func TestPoolSessionKeying(t *testing.T) {
	pool := gsi.NewSessionPool()
	pb := newPoolBed(t, nil, gsi.WithSessionPool(pool))
	ctx := context.Background()
	for _, opts := range [][]gsi.Option{
		nil,
		// Delegation intent: must not reuse the parked non-delegating
		// session.
		{gsi.WithDelegation()},
		// Stricter policy: must not reuse a session handshaken without
		// the limited-proxy check.
		{gsi.WithRejectLimited()},
	} {
		client, err := pb.env.NewClient(pb.alice, append(opts, gsi.WithSessionPool(pool))...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := client.Exchange(ctx, pb.ep.Addr(), "echo", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := pool.Stats(); st.Dials != 3 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 3 dials (distinct keys) and 3 hits (each client reusing only its own)", st)
	}
}

// TestPoolDrainOnClose: Close empties the idle pool and later returns
// close rather than park their sessions.
func TestPoolDrainOnClose(t *testing.T) {
	pb := newPoolBed(t, nil, gsi.WithSessionPool(nil))
	ctx := context.Background()
	sess, err := pb.client.Connect(ctx, pb.ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.client.Exchange(ctx, pb.ep.Addr(), "echo", nil); err != nil {
		t.Fatal(err)
	}
	pool := pb.client.Pool()
	if st := pool.Stats(); st.Idle != 1 || st.Active != 1 {
		t.Fatalf("pre-close stats = %+v, want 1 idle / 1 active", st)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// The checked-out session is still usable and its return closes it.
	if _, err := sess.Exchange(ctx, "echo", []byte("late")); err != nil {
		t.Fatalf("in-flight session after pool close: %v", err)
	}
	sess.Close()
	if st := pool.Stats(); st.Idle != 0 || st.Active != 0 {
		t.Fatalf("post-drain stats = %+v, want empty pool", st)
	}
}
