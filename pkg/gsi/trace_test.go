package gsi_test

import (
	"context"
	"encoding/json"
	"repro/internal/trace"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ogsa"
	"repro/pkg/gsi"
)

// waitSpans polls a tracer's flight recorder until at least min spans
// match the query: span records land when spans End, which on the
// server side can trail the client's observed completion by a
// scheduler quantum.
func waitSpans(t *testing.T, tr *gsi.Tracer, q gsi.TraceQuery, min int) []trace.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := tr.Recorder().Snapshot(q)
		if len(recs) >= min {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("wanted %d spans for %+v, recorder holds %d: %+v", min, q, len(recs), recs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// opCount tallies records per op name.
func opCount(recs []trace.SpanRecord) map[string]int {
	m := make(map[string]int)
	for _, r := range recs {
		m[r.Op]++
	}
	return m
}

// testTraceExchange drives one traced Exchange over a transport (the
// client built with clientOpts besides) and asserts the core property
// of tracing: the client's root span and the server's spans — exchange,
// authorization — share one trace id, with the server's span marked as
// continuing a remote context.
func testTraceExchange(t *testing.T, transport gsi.Transport, clientOpts ...gsi.Option) {
	bed := newAuthzBed(t)
	reg := gsi.NewMetricsRegistry()
	server := bed.server(t, gsi.WithTransport(transport), gsi.WithMetrics(reg), gsi.WithTracing())
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	client, err := bed.env.NewClient(bed.alice,
		append([]gsi.Option{gsi.WithTransport(transport), gsi.WithTracing()}, clientOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if client.Tracer() == nil || server.Tracer() == nil {
		t.Fatal("WithTracing did not materialize a tracer")
	}
	if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("ping")); err != nil {
		t.Fatal(err)
	}

	roots := waitSpans(t, client.Tracer(), gsi.TraceQuery{Op: "client.exchange"}, 1)
	root := roots[0]
	if root.Remote {
		t.Fatal("client root span marked remote")
	}
	tid := root.TraceID.String()

	// Every server span of the trace carries the client's trace id —
	// that IS the cross-wire propagation.
	srv := waitSpans(t, server.Tracer(), gsi.TraceQuery{TraceID: tid, N: 100}, 2)
	ops := opCount(srv)
	if ops["server.exchange"] != 1 {
		t.Fatalf("trace %s: server.exchange count = %d, spans %+v", tid, ops["server.exchange"], srv)
	}
	if ops["server.authz"] != 1 {
		t.Fatalf("trace %s: server.authz count = %d, spans %+v", tid, ops["server.authz"], srv)
	}
	for _, r := range srv {
		if r.Op == "server.exchange" {
			if !r.Remote {
				t.Fatal("server.exchange span not marked remote despite inbound context")
			}
			if !strings.Contains(r.Peer, "Alice") {
				t.Fatalf("server.exchange peer = %q, want Alice's DN", r.Peer)
			}
		}
	}

	// The latency histograms observed the ops into the shared registry.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gsi_op_seconds") {
		t.Fatalf("registry missing gsi_op_seconds after traced exchange:\n%s", sb.String())
	}
}

func TestTraceExchangePropagation(t *testing.T) {
	t.Run("GT2", func(t *testing.T) { testTraceExchange(t, gsi.TransportGT2()) })
	t.Run("GT3", func(t *testing.T) { testTraceExchange(t, gsi.TransportGT3()) })
	t.Run("GT3signed", func(t *testing.T) {
		testTraceExchange(t, gsi.TransportGT3(), gsi.WithMessageProtection(gsi.ProtectionSigned))
	})
}

// TestTracePropagationConcurrent hammers one traced server from
// concurrent traced clients over both transports at once and checks
// that every client-side root trace reappears server-side — contexts
// must not bleed between interleaved exchanges. Run under -race this
// doubles as the data-race proof for the span plumbing.
func TestTracePropagationConcurrent(t *testing.T) {
	bed := newAuthzBed(t)
	ctx := context.Background()
	const (
		workers    = 4
		perWorker  = 20
		transports = 2
	)

	type side struct {
		transport gsi.Transport
		server    *gsi.Server
		client    *gsi.Client
		addr      string
	}
	sides := make(map[string]*side)
	for _, trName := range []string{"gt2", "gt3"} {
		transport := gsi.TransportGT2()
		if trName == "gt3" {
			transport = gsi.TransportGT3()
		}
		server := bed.server(t, gsi.WithTransport(transport), gsi.WithTracing())
		ep, err := server.Serve(ctx, "127.0.0.1:0",
			func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
				return body, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		client, err := bed.env.NewClient(bed.alice,
			gsi.WithTransport(transport),
			gsi.WithSessionPool(nil),
			gsi.WithTracing())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Pool().Close()
		sides[trName] = &side{transport: transport, server: server, client: client, addr: ep.Addr()}
	}

	// Both transports hammered at once: contexts must not bleed across
	// interleaved exchanges, pooled sessions, or transports.
	var wg sync.WaitGroup
	for trName, s := range sides {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(name string, s *side) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if _, err := s.client.Exchange(ctx, s.addr, "echo", []byte("c")); err != nil {
						t.Errorf("%s exchange: %v", name, err)
						return
					}
				}
			}(trName, s)
		}
	}
	wg.Wait()

	want := workers * perWorker
	for trName, s := range sides {
		// Every client-side root must reappear server-side under the same
		// trace id, and no two exchanges may share one.
		clientTIDs := make(map[string]bool)
		for _, r := range s.client.Tracer().Recorder().Snapshot(gsi.TraceQuery{Op: "client.exchange", N: want + 50}) {
			clientTIDs[r.TraceID.String()] = true
		}
		if len(clientTIDs) != want {
			t.Fatalf("%s: client produced %d distinct trace ids, want %d", trName, len(clientTIDs), want)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			recs := s.server.Tracer().Recorder().Snapshot(gsi.TraceQuery{Op: "server.exchange", N: want + 50})
			serverTIDs := make(map[string]bool)
			for _, r := range recs {
				if r.Remote {
					serverTIDs[r.TraceID.String()] = true
				}
			}
			if len(serverTIDs) >= want {
				for tid := range clientTIDs {
					if !serverTIDs[tid] {
						t.Fatalf("%s: client trace %s never reached the server", trName, tid)
					}
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: server recorded %d distinct remote traces, want %d", trName, len(serverTIDs), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestAdminTraces exercises the admin plane the gsictl traces
// subcommand calls: the Traces op filters the flight recorder by op,
// and a server without WithTracing refuses it with a typed fault.
func TestAdminTraces(t *testing.T) {
	bed := newAuthzBed(t)
	bed.local.Add(gsi.Rule{
		ID:        "admin-ops",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{bed.alice.Identity().String()},
		Resources: []string{"ogsa:" + ogsa.AdminHandle},
		Actions:   []string{"*"},
	})
	server := bed.server(t, gsi.WithTransport(gsi.TransportGT3()), gsi.WithAdmin(), gsi.WithTracing())
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	client, err := bed.env.NewClient(bed.alice,
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("ping")); err != nil {
		t.Fatal(err)
	}

	// Traces: filter the recorder by op, exactly the gsictl traces -op
	// path. The server.exchange span of the earlier echo must be there,
	// remote, under Alice's DN.
	query := []byte(`{"op":"server.exchange","peer":"Alice"}`)
	deadline := time.Now().Add(5 * time.Second)
	var out []byte
	var spans []struct {
		Trace  string `json:"trace"`
		Span   string `json:"span"`
		Op     string `json:"op"`
		Peer   string `json:"peer"`
		DurUS  int64  `json:"dur_us"`
		Remote bool   `json:"remote"`
	}
	for {
		out, err = client.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpTraces, query)
		if err != nil {
			t.Fatalf("Traces as admin: %v", err)
		}
		spans = spans[:0]
		if err := json.Unmarshal(out, &spans); err != nil {
			t.Fatalf("Traces is not JSON: %v\n%s", err, out)
		}
		if len(spans) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Traces never surfaced the exchange span: %s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, sp := range spans {
		if sp.Op != "server.exchange" {
			t.Fatalf("op-filtered query returned op %q", sp.Op)
		}
		if !sp.Remote {
			t.Fatalf("server.exchange span not remote: %+v", sp)
		}
		if len(sp.Trace) != 32 || len(sp.Span) != 16 {
			t.Fatalf("malformed ids in %+v", sp)
		}
	}

	// Errors-only on a clean server comes back empty, not faulted.
	out, err = client.Invoke(ctx, ep.Addr(), ogsa.AdminHandle, ogsa.AdminOpTraces, []byte(`{"errors_only":true,"op":"server.exchange"}`))
	if err != nil {
		t.Fatalf("Traces errors_only: %v", err)
	}
	var errSpans []json.RawMessage
	if err := json.Unmarshal(out, &errSpans); err != nil {
		t.Fatalf("errors_only result not JSON: %v\n%s", err, out)
	}
	if len(errSpans) != 0 {
		t.Fatalf("errors_only returned %d spans for a clean server", len(errSpans))
	}

	// A tracing-less admin server answers Traces with a typed fault
	// pointing at WithTracing, not a denial and not a panic.
	dark := bed.server(t, gsi.WithTransport(gsi.TransportGT3()), gsi.WithAdmin())
	dep, err := dark.Serve(ctx, "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if _, err := client.Invoke(ctx, dep.Addr(), ogsa.AdminHandle, ogsa.AdminOpTraces, nil); err == nil ||
		!strings.Contains(err.Error(), "WithTracing") {
		t.Fatalf("Traces without tracer: %v, want WithTracing hint", err)
	}
}

// BenchmarkExchangeTraced is a pooled exchange with tracing ON (always
// sampled, both ends), for profiling the traced path.
func BenchmarkExchangeTraced(b *testing.B) {
	client, addr := newEchoWorld(b, gsi.WithMetrics(gsi.NewMetricsRegistry()), gsi.WithTracing())
	ctx := context.Background()
	payload := []byte("steady")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exchange(ctx, addr, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}
