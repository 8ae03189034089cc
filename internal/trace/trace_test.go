package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/israce"
	"repro/internal/telemetry"
)

func TestSpanContextRoundTrip(t *testing.T) {
	tr := New(Config{})
	s := tr.StartRoot("client.exchange")
	sc := s.Context()
	if !sc.Valid() || !sc.Sampled() {
		t.Fatalf("root context = %+v, want valid and sampled", sc)
	}
	enc := sc.Encode(nil)
	if len(enc) != EncodedLen {
		t.Fatalf("encoded length = %d, want %d", len(enc), EncodedLen)
	}
	got, ok := DecodeSpanContext(enc)
	if !ok || got != sc {
		t.Fatalf("decode = %+v ok=%v, want %+v", got, ok, sc)
	}
	s.End()

	if _, ok := DecodeSpanContext(enc[:10]); ok {
		t.Fatal("short encoding decoded")
	}
	if _, ok := DecodeSpanContext(make([]byte, EncodedLen)); ok {
		t.Fatal("zero trace id decoded as valid")
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("op")
	if s != nil {
		t.Fatal("nil tracer minted a span")
	}
	// All nil-span methods must be safe.
	s.SetPeer("x")
	s.SetError(errors.New("boom"))
	s.AddBytes(1)
	s.End()
	if c := s.StartChild("child"); c != nil {
		t.Fatal("nil span minted a child")
	}
	if sc := s.Context(); sc.Valid() {
		t.Fatal("nil span has a valid context")
	}
	if tr.Recorder().Len() != 0 {
		t.Fatal("nil recorder nonzero")
	}
	if got := tr.Recorder().Snapshot(Query{}); got != nil {
		t.Fatal("nil recorder snapshot nonempty")
	}
}

func TestRemoteAndChildSpansShareTrace(t *testing.T) {
	client := New(Config{})
	server := New(Config{})
	root := client.StartRoot("client.exchange")
	child := root.StartChild("client.handshake")
	remote := server.StartRemote(root.Context(), "server.exchange")
	authz := remote.StartChild("server.authz")

	rootID := root.Context().TraceID
	for name, sc := range map[string]SpanContext{
		"child": child.Context(), "remote": remote.Context(), "authz": authz.Context(),
	} {
		if sc.TraceID != rootID {
			t.Fatalf("%s trace id = %v, want %v", name, sc.TraceID, rootID)
		}
	}
	if remote.parent != root.Context().SpanID {
		t.Fatal("remote span not parented to the client root")
	}
	authz.End()
	remote.End()
	child.End()
	root.End()

	spans := server.Recorder().Snapshot(Query{TraceID: rootID.String()})
	if len(spans) != 2 {
		t.Fatalf("server recorded %d spans, want 2", len(spans))
	}
	if !spans[0].Start.After(time.Time{}) {
		t.Fatal("span start unset")
	}

	// An invalid parent falls back to a fresh root.
	fresh := server.StartRemote(SpanContext{}, "server.exchange")
	if fresh.Context().TraceID == rootID {
		t.Fatal("invalid parent joined an existing trace")
	}
	fresh.End()
}

func TestSamplerGatesRecordingNotHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{Registry: reg, Sampler: NeverSample()})
	s := tr.StartRoot("client.exchange")
	if s.Context().Sampled() {
		t.Fatal("NeverSample minted a sampled root")
	}
	s.End()
	if n := tr.Recorder().Len(); n != 0 {
		t.Fatalf("recorder holds %d spans under NeverSample, want 0", n)
	}
	h := tr.Histogram("client.exchange")
	if h == nil || h.Count() != 1 {
		t.Fatal("histogram not observed for unsampled span")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `gsi_op_seconds_count{op="client.exchange"}`) {
		t.Fatalf("exposition missing per-op series:\n%s", sb.String())
	}
}

func TestFlightRecorderQueries(t *testing.T) {
	tr := New(Config{Capacity: 8})
	mk := func(op, peer string, d time.Duration, fail bool) {
		s := tr.StartRoot(op)
		s.SetPeer(peer)
		s.start = s.start.Add(-d) // backdate so Duration ≈ d
		if fail {
			s.SetError(errors.New("denied"))
		}
		s.End()
	}
	mk("exchange", "/O=Grid/CN=Alice", 5*time.Millisecond, false)
	mk("exchange", "/O=Grid/CN=Bob", 50*time.Millisecond, true)
	mk("stream", "/O=Grid/CN=Alice", 500*time.Millisecond, false)

	all := tr.Recorder().Snapshot(Query{})
	if len(all) != 3 || all[0].Op != "stream" {
		t.Fatalf("slowest-first order wrong: %+v", all)
	}
	if got := tr.Recorder().Snapshot(Query{Op: "exchange"}); len(got) != 2 {
		t.Fatalf("op filter returned %d, want 2", len(got))
	}
	if got := tr.Recorder().Snapshot(Query{Peer: "Alice"}); len(got) != 2 {
		t.Fatalf("peer filter returned %d, want 2", len(got))
	}
	got := tr.Recorder().Snapshot(Query{ErrorsOnly: true})
	if len(got) != 1 || got[0].Peer != "/O=Grid/CN=Bob" {
		t.Fatalf("errors-only returned %+v", got)
	}
	if got := tr.Recorder().Snapshot(Query{N: 1}); len(got) != 1 || got[0].Op != "stream" {
		t.Fatalf("N=1 returned %+v", got)
	}

	// Ring bound: 20 spans into capacity 8 keeps the newest 8.
	for i := 0; i < 20; i++ {
		mk("flood", "", time.Millisecond, false)
	}
	if n := tr.Recorder().Len(); n != 8 {
		t.Fatalf("recorder holds %d, want capacity 8", n)
	}
}

func TestSpanRecordJSON(t *testing.T) {
	rec := SpanRecord{
		TraceID:  TraceID{1, 2},
		SpanID:   SpanID{3},
		Parent:   SpanID{4},
		Op:       "exchange",
		Peer:     `/O=Grid/CN=We"ird\DN`,
		Start:    time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Duration: 1500 * time.Microsecond,
		Err:      "denied",
		Bytes:    64,
		Remote:   true,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("record JSON does not parse: %v\n%s", err, data)
	}
	if got["trace"] != rec.TraceID.String() || got["dur_us"] != float64(1500) {
		t.Fatalf("JSON = %s", data)
	}
	if got["peer"] != rec.Peer {
		t.Fatalf("hostile DN did not round-trip: %q", got["peer"])
	}
}

// TestSpanStartEndAllocs holds the raw span lifecycle — pool get, clock
// reads, histogram observe, ring copy-in — to zero allocations. This is
// the cost a traced (sampled) operation pays on top of its own work.
func TestSpanStartEndAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation empties sync.Pools at random; exactness only holds in plain builds")
	}
	tr := New(Config{Registry: telemetry.NewRegistry()})
	// Prime the op histogram so the steady state is the read-locked hit.
	tr.StartRoot("bench.op").End()
	if n := testing.AllocsPerRun(2000, func() { tr.StartRoot("bench.op").End() }); n != 0 {
		t.Fatalf("span start/end allocates %v/op, want 0", n)
	}
}
