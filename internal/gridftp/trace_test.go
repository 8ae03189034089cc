package gridftp

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// waitTraceSpans polls a recorder until min spans of one trace landed.
func waitTraceSpans(t *testing.T, tr *trace.Tracer, tid string, min int) []trace.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs := tr.Recorder().Snapshot(trace.Query{TraceID: tid, N: 100})
		if len(recs) >= min {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("wanted %d spans of trace %s, recorder holds %d: %+v", min, tid, len(recs), recs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A traced striped GET produces ONE trace spanning both processes:
// the client's root and per-stripe lanes, and — via the trailing
// context on the command and on every JOIN — the server's transfer
// span and its per-stripe lanes, all under the same trace id.
func TestStripedGetTracePropagation(t *testing.T) {
	const stripes = 3
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	serverTracer := trace.New(trace.Config{})
	b.srv.SetTracer(serverTracer)

	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientTracer := trace.New(trace.Config{})
	c.SetTracer(clientTracer)

	payload := stripedPayload(2<<20 + 77)
	if err := b.store.Put(b.alice.Identity(), "/data/traced", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetStriped("/data/traced", stripes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("GetStriped returned %d bytes, want %d", len(got), len(payload))
	}

	roots := clientTracer.Recorder().Snapshot(trace.Query{Op: "gridftp.get"})
	if len(roots) != 1 {
		t.Fatalf("client recorded %d gridftp.get roots, want 1", len(roots))
	}
	root := roots[0]
	if root.Bytes < int64(len(payload)) {
		t.Fatalf("root span accounts %d bytes, transferred %d", root.Bytes, len(payload))
	}
	tid := root.TraceID.String()

	cli := waitTraceSpans(t, clientTracer, tid, 1+stripes)
	lanes := 0
	for _, r := range cli {
		if r.Op == "gridftp.stripe" {
			lanes++
		}
	}
	if lanes != stripes {
		t.Fatalf("client trace holds %d gridftp.stripe lanes, want %d: %+v", lanes, stripes, cli)
	}

	srv := waitTraceSpans(t, serverTracer, tid, 1+stripes)
	srvOps := make(map[string]int)
	for _, r := range srv {
		srvOps[r.Op]++
		if !r.Remote {
			t.Fatalf("server span %s of trace %s not marked remote", r.Op, tid)
		}
	}
	if srvOps["gridftp.server.get"] != 1 || srvOps["gridftp.server.stripe"] != stripes {
		t.Fatalf("server trace ops = %v, want 1 gridftp.server.get + %d gridftp.server.stripe", srvOps, stripes)
	}
}

// A traced client against an untraced server — and the reverse — must
// interoperate: the length-discriminated suffix is stripped (or simply
// absent) without disturbing the transfer.
func TestTraceInteropUntracedPeers(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))

	// Traced client, untraced server.
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ct := trace.New(trace.Config{})
	c.SetTracer(ct)
	payload := stripedPayload(1 << 20)
	if err := c.PutStriped("/data/interop", 2, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetStriped("/data/interop", 2)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("traced→untraced striped round trip: %d bytes, %v", len(got), err)
	}
	if err := c.Put("/data/plain", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/data/plain"); err != nil {
		t.Fatal(err)
	}

	// Untraced client, traced server: roots a server-local trace.
	st := trace.New(trace.Config{})
	b.srv.SetTracer(st)
	c2, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err = c2.GetStriped("/data/interop", 2)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("untraced→traced striped GET: %d bytes, %v", len(got), err)
	}
	// The server ends its span after the last byte left, so the client
	// can be back first.
	var recs []trace.SpanRecord
	for deadline := time.Now().Add(5 * time.Second); len(recs) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		recs = st.Recorder().Snapshot(trace.Query{Op: "gridftp.server.get"})
	}
	if len(recs) != 1 {
		t.Fatalf("traced server recorded %d gridftp.server.get spans, want 1", len(recs))
	}
	if recs[0].Remote {
		t.Fatal("server span marked remote despite untraced client")
	}
}
