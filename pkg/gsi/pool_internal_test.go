package gsi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/soap"
)

// TestSessionPoisonedClassification pins down which exchange errors let
// a session back into the idle pool: peer-reported application errors
// are benign, channel-level failures — including SOAP faults that
// report the secure conversation itself dead — poison.
func TestSessionPoisonedClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"remote status", gt2StatusErr(gt2StatusError, "boom"), false},
		{"remote unauthorized", gt2StatusErr(gt2StatusUnauthorized, "denied"), false},
		{"remote not found", gt2StatusErr(gt2StatusNotFound, "gone"), false},
		{"application fault", &soap.Fault{Code: "app", Reason: "quota exceeded"}, false},
		{"wrapped application fault", fmt.Errorf("call: %w", &soap.Fault{Code: "app", Reason: "denied by policy"}), false},
		{"unknown security context fault", &soap.Fault{Code: "handler", Reason: `wssec: unknown security context "sct-1"`}, true},
		{"unwrap fault", &soap.Fault{Code: "handler", Reason: "wssec: unwrap: cipher: message authentication failed"}, true},
		{"transport error", errors.New("read tcp: connection reset by peer"), true},
		{"broken conn", opErr("gsi.Session.Exchange", errors.New("gsitransport: connection broken by interrupted operation")), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := sessionPoisoned(tc.err); got != tc.want {
				t.Fatalf("sessionPoisoned(%v) = %v, want %v", tc.err, got, tc.want)
			}
		})
	}
}

// pooledBed is a live echo endpoint and a pooled client against it. Its
// pool's limits are fields the tests below tighten before first use.
type pooledBed struct {
	ep     Endpoint
	client *Client
	pool   *SessionPool
}

func newPooledBed(t *testing.T, serverOpts []Option, clientOpts ...Option) pooledBed {
	t.Helper()
	w := newCredmanWorld(t)
	server, err := w.env.NewServer(w.host, serverOpts...)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	client, err := w.env.NewClient(w.alice, append(clientOpts, WithSessionPool(nil))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Pool().Close() })
	return pooledBed{ep: ep, client: client, pool: client.Pool()}
}

// TestPoolErrorTaxonomy: the pool's failures by errors.Is — an
// exhausted pool surfaces ErrPoolExhausted, a cancelled checkout
// ErrContextClosed, and a closed pool ErrPoolExhausted.
func TestPoolErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, pb pooledBed) error
		want error
	}{
		{
			name: "exhausted pool hits deadline",
			want: ErrPoolExhausted,
			run: func(t *testing.T, pb pooledBed) error {
				// Cap of 1, held by an open session: the second checkout
				// queues until its deadline passes.
				held, err := pb.client.Connect(context.Background(), pb.ep.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer held.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				_, err = pb.client.Exchange(ctx, pb.ep.Addr(), "echo", nil)
				return err
			},
		},
		{
			name: "cancelled checkout",
			want: ErrContextClosed,
			run: func(t *testing.T, pb pooledBed) error {
				held, err := pb.client.Connect(context.Background(), pb.ep.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer held.Close()
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(20 * time.Millisecond)
					cancel()
				}()
				_, err = pb.client.Exchange(ctx, pb.ep.Addr(), "echo", nil)
				return err
			},
		},
		{
			name: "dead context at entry",
			want: ErrContextClosed,
			run: func(t *testing.T, pb pooledBed) error {
				// Even with an expired deadline, a context that was dead
				// before the pool was consulted is the caller's problem,
				// not exhaustion.
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				defer cancel()
				_, err := pb.client.Exchange(ctx, pb.ep.Addr(), "echo", nil)
				return err
			},
		},
		{
			name: "closed pool",
			want: ErrPoolExhausted,
			run: func(t *testing.T, pb pooledBed) error {
				pb.pool.Close()
				_, err := pb.client.Exchange(context.Background(), pb.ep.Addr(), "echo", nil)
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pb := newPooledBed(t, nil)
			pb.pool.maxPerHost = 1
			err := tc.run(t, pb)
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.want)
			}
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("not a *gsi.Error: %v", err)
			}
		})
	}
}

// TestPoolGT3ResumptionCache: after the pool's idle sessions are gone,
// a new GT3 dial resumes the cached secure conversation instead of
// re-running the WS-Trust bootstrap.
func TestPoolGT3ResumptionCache(t *testing.T) {
	pb := newPooledBed(t, []Option{WithTransport(TransportGT3())}, WithTransport(TransportGT3()))
	pb.pool.maxIdle, pb.pool.idleTTL = 1, time.Millisecond
	ctx := context.Background()
	if _, err := pb.client.Exchange(ctx, pb.ep.Addr(), "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Let the parked session age past the TTL so the next checkout must
	// evict it and dial anew — which should hit the resumption cache.
	time.Sleep(5 * time.Millisecond)
	if _, err := pb.client.Exchange(ctx, pb.ep.Addr(), "echo", []byte("b")); err != nil {
		t.Fatal(err)
	}
	st := pb.pool.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v: stale session not evicted", st)
	}
	if st.Resumes == 0 {
		t.Fatalf("stats = %+v: second dial did not resume the conversation", st)
	}
}

// TestIntegrationPooledClientUnderLoad: N goroutines × M exchanges
// through one pooled client, over both transports, must share a bounded
// set of connections (exactly one handshake per pooled conn), run clean
// under -race, and drain on Close. The pool parks as many sessions as
// it may hold, so none is closed and re-dialed for lack of room.
func TestIntegrationPooledClientUnderLoad(t *testing.T) {
	for _, tr := range []Transport{TransportGT2(), TransportGT3()} {
		t.Run(tr.String(), func(t *testing.T) {
			w := newCredmanWorld(t)
			var served atomic.Int64
			handler := func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error) {
				served.Add(1)
				return body, nil
			}
			server, err := w.env.NewServer(w.host, WithTransport(tr))
			if err != nil {
				t.Fatal(err)
			}
			ep, err := server.Serve(context.Background(), "127.0.0.1:0", handler)
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()

			const maxConns = 4
			pool := NewSessionPool()
			pool.maxIdle, pool.maxPerHost = maxConns, maxConns
			client, err := w.env.NewClient(w.alice, WithTransport(tr), WithSessionPool(pool))
			if err != nil {
				t.Fatal(err)
			}

			const goroutines, perG = 8, 25
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
						out, err := client.Exchange(ctx, ep.Addr(), "echo", payload)
						if err != nil {
							errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
							return
						}
						if string(out) != string(payload) {
							errs <- fmt.Errorf("goroutine %d call %d: got %q", g, i, out)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			st := pool.Stats()
			if got := served.Load(); got != goroutines*perG {
				t.Fatalf("served = %d, want %d", got, goroutines*perG)
			}
			// Exactly one handshake per pooled conn: the dial count is the
			// conn count, and it never exceeds the per-host cap.
			if st.Dials == 0 || st.Dials > maxConns {
				t.Fatalf("dials = %d, want 1..%d", st.Dials, maxConns)
			}
			if st.Poisoned != 0 {
				t.Fatalf("poisoned = %d under a healthy server", st.Poisoned)
			}
			if st.Hits+st.Dials < goroutines*perG {
				t.Fatalf("stats %+v do not account for %d exchanges", st, goroutines*perG)
			}

			// Clean drain: Close empties the pool; later checkouts fail
			// with the taxonomy sentinel.
			if err := pool.Close(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if st := pool.Stats(); st.Idle != 0 || st.Active != 0 {
				t.Fatalf("post-drain stats = %+v", st)
			}
			if _, err := client.Exchange(ctx, ep.Addr(), "echo", nil); !errors.Is(err, ErrPoolExhausted) {
				t.Fatalf("exchange after Close: %v", err)
			}
		})
	}
}
