package gsi_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// blackholeListener accepts TCP connections and never writes a byte, so
// a GSI handshake against it blocks reading token2 until interrupted.
func blackholeListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestConnectCancellationMidHandshake proves the acceptance criterion:
// an in-flight handshake — blocked on the network waiting for the
// peer's token — aborts promptly when the context is canceled.
func TestConnectCancellationMidHandshake(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.Connect(ctx, ln.Addr().String())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Connect succeeded against a blackhole")
	}
	if !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not surfaced: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("handshake abort took %v; not prompt", elapsed)
	}
}

// TestConnectDeadlineMidHandshake: a context deadline interrupts the
// blocked handshake with ErrContextClosed / DeadlineExceeded.
func TestConnectDeadlineMidHandshake(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Connect(ctx, ln.Addr().String())
	if err == nil {
		t.Fatal("Connect succeeded against a blackhole")
	}
	if !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not surfaced: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
}

// TestDeadlineSkewShrinksDeadline: WithDeadlineSkew gives up before the
// caller's deadline, budgeting for peer clock skew.
func TestDeadlineSkewShrinksDeadline(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice, gsi.WithDeadlineSkew(400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Connect(ctx, ln.Addr().String())
	elapsed := time.Since(start)
	if !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("skewed deadline not surfaced: %v", err)
	}
	// The skewed budget is ~100ms; well before the caller's 500ms.
	if elapsed >= 450*time.Millisecond {
		t.Fatalf("skew not applied: gave up after %v", elapsed)
	}
}

// TestEstablishCancellationBetweenTokens: gss.EstablishContext checks
// the context at token boundaries; a context canceled by the acceptor's
// own clock callback aborts before completion.
func TestEstablishCancellationBetweenTokens(t *testing.T) {
	tb := newTestbed(t)
	ctx, cancel := context.WithCancel(context.Background())
	// The initiator's clock first fires while it processes token2 —
	// cancel there, so the cancellation lands mid-handshake
	// deterministically and the next token boundary must catch it.
	cancelEnv, err := gsi.NewEnvironment(
		gsi.WithTrustStore(tb.env.Trust()),
		gsi.WithClock(func() time.Time {
			cancel()
			return time.Now()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	client, err := cancelEnv.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = client.Establish(ctx, gsi.ContextConfig{
		Credential: tb.host,
		TrustStore: tb.env.Trust(),
	})
	if !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("mid-establish cancellation not surfaced: %v", err)
	}
}

// TestCASRequestCancellation: a cancellation that lands while the CAS
// server is processing the request (after the policy scan, before
// signing) aborts the issuance — no assertion is signed for a caller
// that has gone away.
func TestCASRequestCancellation(t *testing.T) {
	tb := newTestbed(t)
	vo, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=VO"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	server := gsi.NewCASServer(vo)
	server.AddMember(tb.alice.Identity(), "researchers")
	server.AddPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Groups:    []string{"researchers"},
		Resources: []string{"data:/*"},
		Actions:   []string{"read"},
	})

	ctx, cancel := context.WithCancel(context.Background())
	server.SetClock(func() time.Time {
		cancel() // fires mid-issuance, between the scan and the signature
		return time.Now()
	})
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.RequestAssertion(ctx, server); !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-issuance cancellation not surfaced: %v", err)
	}

	// And a sane request still succeeds afterwards.
	server.SetClock(time.Now)
	a, err := client.RequestAssertion(context.Background(), server)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rules) != 1 {
		t.Fatalf("assertion rules = %d", len(a.Rules))
	}
}

// TestGT3InvokeCancellation: the Figure-3 pipeline run through
// Client.Invoke refuses a dead context and succeeds under a live one,
// over real HTTP.
func TestGT3InvokeCancellation(t *testing.T) {
	tb := newTestbed(t)
	url, shutdown, err := gsi.ServeHTTP(newPingContainer(t, tb), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := client.Invoke(canceled, url, "ping", "ping", nil); !errors.Is(err, gsi.ErrContextClosed) {
		t.Fatalf("canceled Invoke not surfaced: %v", err)
	}
	// Live context: full pipeline succeeds.
	if out, _, err := client.Invoke(context.Background(), url, "ping", "ping", nil); err != nil {
		t.Fatalf("live Invoke: %v (out=%q)", err, out)
	}
}

// TestGT3InvokeDeadlineMidRPC: a deadline that passes while an RPC of
// the pipeline is in flight — the peer accepted and never answers —
// ends the call then, not at the HTTP client's own 30 s timeout.
func TestGT3InvokeDeadlineMidRPC(t *testing.T) {
	tb := newTestbed(t)
	ln := blackholeListener(t)
	client, err := tb.env.NewClient(tb.alice)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = client.Invoke(ctx, "http://"+ln.Addr().String()+"/soap", "ping", "ping", nil)
	if !errors.Is(err, gsi.ErrContextClosed) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline not surfaced: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Invoke outlived its 300ms deadline by %v", elapsed)
	}
}

// TestCloseAbortsCASPullInFlight: an endpoint whose CAS upstream accepts
// and never answers closes promptly — Close cancels the pull instead of
// waiting out its timeout — and the aborted round counts as a failure.
func TestCloseAbortsCASPullInFlight(t *testing.T) {
	bed := newAuthzBed(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // held open, never answered
		}
	}()
	reg := gsi.NewMetricsRegistry()
	server, err := bed.env.NewServer(bed.host,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithMetrics(reg),
		gsi.WithCASUpstream(gsi.CASUpstreamConfig{
			Endpoints: []string{"http://" + ln.Addr().String() + "/soap"},
			Cert:      bed.vo.Certificate(),
		}),
		gsi.WithLocalPolicy(bed.local))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case conn := <-accepted: // the first pull is in flight
		defer conn.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("the syncer never dialed its upstream")
	}
	start := time.Now()
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close waited %v for the pull in flight", elapsed)
	}
	// The control plane is gone with the endpoint; the syncer's counters
	// stay readable through the registry.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var failures string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "gsi_cas_sync_failures_total") {
			failures = line[strings.LastIndexByte(line, ' ')+1:]
		}
	}
	if failures != "1" {
		t.Fatalf("gsi_cas_sync_failures_total = %q after the aborted pull, want 1:\n%s", failures, sb.String())
	}
}
