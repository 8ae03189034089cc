package trace

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

func TestExporterPushAndRetry(t *testing.T) {
	var mu sync.Mutex
	var batches []Batch
	fail := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			fail = false
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		var b Batch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Errorf("bad batch: %v", err)
		}
		batches = append(batches, b)
	}))
	defer srv.Close()

	exp, err := NewExporter(ExporterConfig{
		URL:      srv.URL,
		Interval: 20 * time.Millisecond,
		Metrics:  func() string { return "# TYPE x counter\nx 1\n" },
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{})
	tr.SetExport(exp.Enqueue)
	s := tr.StartRoot("exchange")
	s.End()

	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(batches)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no batch delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var spans int
	for _, b := range batches {
		spans += len(b.Spans)
		if b.Metrics == "" {
			t.Fatal("batch missing metrics exposition")
		}
	}
	if spans != 1 {
		t.Fatalf("delivered %d spans, want exactly 1 (retry must not duplicate)", spans)
	}
	pushed, lastErr := exp.Stats()
	if pushed == 0 || lastErr != nil {
		t.Fatalf("stats = %d pushed, err %v", pushed, lastErr)
	}
}

func TestExporterQueueBound(t *testing.T) {
	exp, err := NewExporter(ExporterConfig{
		URL:      "http://127.0.0.1:0/never",
		Interval: time.Hour, // never pushes during the test
		MaxQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		exp.Enqueue(SpanRecord{Op: "x"})
	}
	exp.mu.Lock()
	qlen, dropped := len(exp.queue), exp.dropped
	exp.mu.Unlock()
	if qlen != 4 || dropped != 6 {
		t.Fatalf("queue = %d dropped = %d, want 4 and 6", qlen, dropped)
	}
	exp.stopOnce.Do(func() { close(exp.stop) })
	<-exp.done
}

// TestExporterBacklogRotation drives the exporter against a collector
// that stays down for several pushes, then recovers: batches that
// exhausted their retries must be retained (marshaled once) up to
// MaxBacklog, the oldest must rotate out with its spans counted
// dropped, and recovery must deliver the survivors oldest-first with
// the drop reported in-band.
func TestExporterBacklogRotation(t *testing.T) {
	var mu sync.Mutex
	var batches []Batch
	down := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if down {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		var b Batch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Errorf("bad batch: %v", err)
		}
		batches = append(batches, b)
	}))
	defer srv.Close()

	exp, err := NewExporter(ExporterConfig{
		URL:        srv.URL,
		Interval:   time.Hour, // pushes are driven by hand below
		MaxRetries: 1,
		MaxBacklog: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three failed pushes of one span each against a MaxBacklog of 2:
	// the first batch must rotate out.
	for _, op := range []string{"span0", "span1", "span2"} {
		exp.Enqueue(SpanRecord{Op: op})
		exp.push()
	}
	exp.mu.Lock()
	retained := len(exp.backlog)
	exp.mu.Unlock()
	if retained != 2 {
		t.Fatalf("backlog holds %d batches, want 2", retained)
	}
	if got := exp.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after rotation, want 1", got)
	}

	mu.Lock()
	down = false
	mu.Unlock()
	exp.Enqueue(SpanRecord{Op: "span3"})
	exp.push()
	exp.stopOnce.Do(func() { close(exp.stop) })
	<-exp.done

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 3 {
		t.Fatalf("delivered %d batches after recovery, want 3 (two retained + one fresh)", len(batches))
	}
	// Oldest-first: the survivors are the spans from failed pushes 1 and
	// 2 (push 0 rotated out), then the fresh one.
	for i, want := range []string{"span1", "span2", "span3"} {
		if len(batches[i].Spans) != 1 || batches[i].Spans[0].Op != want {
			t.Fatalf("batch %d spans = %+v, want one span with op %q", i, batches[i].Spans, want)
		}
	}
	// The rotated span is reported in-band exactly once.
	var reported uint64
	for _, b := range batches {
		reported += b.Dropped
	}
	if reported != 1 {
		t.Fatalf("batches report %d dropped spans, want 1", reported)
	}
	if got := exp.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after recovery, want 1", got)
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
