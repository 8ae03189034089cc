// Package trace is the repo's dependency-free distributed-tracing
// layer: 16-byte trace ids and 8-byte span ids that propagate across
// the wire on both transports (a trailing binary field on GT2 exchange
// requests, a SOAP header on GT3 calls), pooled spans whose start/end
// lifecycle allocates nothing, per-op latency histograms registered
// into the telemetry registry, and a bounded in-process flight
// recorder holding the most recent sampled spans for admin queries
// ("why was that exchange slow?") without any external collector.
//
// Buffer-ownership rules: a SpanRecord is a value — ids are arrays,
// every other field is a string or integer copied in at End. Nothing
// in the recorder aliases pooled transport buffers, so records stay
// valid indefinitely. The Span object itself is pooled: callers must
// not touch a Span after End returns it to the pool.
package trace

import (
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// TraceID identifies one causally-linked trace across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String renders the id as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports an unset trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// FlagSampled marks a trace whose spans are recorded (not just timed).
const FlagSampled = 0x01

// EncodedLen is the wire size of a SpanContext: trace id, span id,
// flags.
const EncodedLen = 16 + 8 + 1

// SpanContext is the propagated identity of a span: what crosses the
// wire so the server's spans join the client's trace.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() }

// Sampled reports whether spans under this context should be recorded.
func (sc SpanContext) Sampled() bool { return sc.Flags&FlagSampled != 0 }

// Encode appends the 25-byte wire form to dst.
func (sc SpanContext) Encode(dst []byte) []byte {
	dst = append(dst, sc.TraceID[:]...)
	dst = append(dst, sc.SpanID[:]...)
	return append(dst, sc.Flags)
}

// DecodeSpanContext parses the 25-byte wire form. Reports false on a
// wrong length or a zero trace id — callers treat both as "no trace
// context present".
func DecodeSpanContext(b []byte) (SpanContext, bool) {
	if len(b) != EncodedLen {
		return SpanContext{}, false
	}
	var sc SpanContext
	copy(sc.TraceID[:], b[:16])
	copy(sc.SpanID[:], b[16:24])
	sc.Flags = b[24]
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Sampler decides, per root span, whether a new trace is recorded.
// Sampling gates recording only — per-op latency histograms are
// observed for every span regardless.
type Sampler func(op string) bool

// AlwaysSample records every trace.
func AlwaysSample() Sampler { return func(string) bool { return true } }

// NeverSample records no traces (histograms still observe).
func NeverSample() Sampler { return func(string) bool { return false } }

// RatioSampler records approximately ratio of traces (0..1).
func RatioSampler(ratio float64) Sampler {
	switch {
	case ratio <= 0:
		return NeverSample()
	case ratio >= 1:
		return AlwaysSample()
	}
	return func(string) bool { return rand.Float64() < ratio }
}

// SpanRecord is one finished span as the flight recorder holds it: a
// self-contained value with no aliases into transport buffers.
type SpanRecord struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Op       string
	Peer     string
	Start    time.Time
	Duration time.Duration
	Err      string
	Bytes    int64
	Remote   bool // span continues a context received over the wire
}

// Config parameterizes a Tracer.
type Config struct {
	// Registry receives the per-op latency histograms
	// (gsi_op_seconds{op="..."}). Nil disables histogram registration.
	Registry *telemetry.Registry
	// Capacity bounds the flight recorder (spans). 0 selects
	// DefaultCapacity.
	Capacity int
	// Sampler gates recording. Nil selects AlwaysSample.
	Sampler Sampler
}

// DefaultCapacity is the flight-recorder ring size when Config leaves
// it zero: enough to hold the recent past of a busy endpoint without
// unbounded growth.
const DefaultCapacity = 4096

// maxOpHistograms bounds lazily-created per-op histograms so a hostile
// peer minting op names cannot grow the registry without bound.
const maxOpHistograms = 256

// Tracer mints spans, observes per-op latency, and feeds the flight
// recorder. One Tracer is shared by a Client or Server and all its
// sessions; all methods are safe for concurrent use. A nil *Tracer is
// valid and inert — every method no-ops — so call sites never branch
// on "is tracing on".
type Tracer struct {
	sampler Sampler
	rec     *FlightRecorder
	reg     *telemetry.Registry
	pool    sync.Pool

	histMu sync.RWMutex
	hists  map[string]*telemetry.Histogram
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	sampler := cfg.Sampler
	if sampler == nil {
		sampler = AlwaysSample()
	}
	t := &Tracer{
		sampler: sampler,
		rec:     NewFlightRecorder(capacity),
		reg:     cfg.Registry,
		hists:   make(map[string]*telemetry.Histogram),
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Recorder returns the tracer's flight recorder.
func (t *Tracer) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// newIDs mints a fresh trace id. math/rand/v2's global generator is
// seeded per-process and safe for concurrent use; tracing ids need
// collision resistance, not unpredictability.
func newTraceID() TraceID {
	var id TraceID
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (56 - 8*i))
		id[8+i] = byte(lo >> (56 - 8*i))
	}
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	v := rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (56 - 8*i))
	}
	if id == (SpanID{}) {
		id[0] = 1
	}
	return id
}

// Span is one in-flight timed operation. Spans come from a pool; after
// End the object is reused — callers must drop every reference. All
// mutators are safe on a nil span (inert tracer), so disabled tracing
// costs a nil check and nothing else.
type Span struct {
	tr     *Tracer
	sc     SpanContext
	parent SpanID
	op     string
	peer   string
	start  time.Time
	bytes  int64
	errStr string
	remote bool
}

// start initializes a pooled span.
func (t *Tracer) startSpan(sc SpanContext, parent SpanID, op string, remote bool) *Span {
	s := t.pool.Get().(*Span)
	s.tr = t
	s.sc = sc
	s.parent = parent
	s.op = op
	s.peer = ""
	s.start = time.Now()
	s.bytes = 0
	s.errStr = ""
	s.remote = remote
	return s
}

// StartRoot begins a new trace with op as its root span. The sampler
// decides whether the trace's spans are recorded.
func (t *Tracer) StartRoot(op string) *Span {
	if t == nil {
		return nil
	}
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	if t.sampler(op) {
		sc.Flags |= FlagSampled
	}
	return t.startSpan(sc, SpanID{}, op, false)
}

// StartRemote begins a span continuing a context received over the
// wire: same trace id, the remote span as parent, the remote sampling
// decision. An invalid parent falls back to StartRoot so server-side
// spans exist even for untraced clients.
func (t *Tracer) StartRemote(parent SpanContext, op string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(op)
	}
	sc := SpanContext{TraceID: parent.TraceID, SpanID: newSpanID(), Flags: parent.Flags}
	return t.startSpan(sc, parent.SpanID, op, true)
}

// StartChild begins a child span under s. Nil-safe: a nil receiver
// returns nil.
func (s *Span) StartChild(op string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	sc := SpanContext{TraceID: s.sc.TraceID, SpanID: newSpanID(), Flags: s.sc.Flags}
	return s.tr.startSpan(sc, s.sc.SpanID, op, false)
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetPeer records the authenticated peer DN.
func (s *Span) SetPeer(dn string) {
	if s != nil {
		s.peer = dn
	}
}

// SetError records a failure. Error() is only rendered when the span
// is sampled or an op histogram exists — callers may pass err
// unconditionally.
func (s *Span) SetError(err error) {
	if s != nil && err != nil {
		s.errStr = err.Error()
	}
}

// AddBytes accumulates payload bytes moved under the span (transfer
// and stripe-lane spans).
func (s *Span) AddBytes(n int64) {
	if s != nil {
		s.bytes += n
	}
}

// AddTimed records a completed child span under s with caller-measured
// timing — the retroactive form used for work that finished before the
// trace reached it (a pooled connection's handshake, a resumed
// conversation's resume round). Histogram and recorder behave exactly
// as for a normal child's End.
func (s *Span) AddTimed(op string, start time.Time, d time.Duration, peer string) {
	if s == nil || s.tr == nil {
		return
	}
	t := s.tr
	t.observe(op, d)
	if !s.sc.Sampled() {
		return
	}
	rec := SpanRecord{
		TraceID:  s.sc.TraceID,
		SpanID:   newSpanID(),
		Parent:   s.sc.SpanID,
		Op:       op,
		Peer:     peer,
		Start:    start,
		Duration: d,
	}
	t.rec.add(rec)
}

// End finishes the span: observes the per-op latency histogram,
// records into the flight recorder when sampled, and returns the span
// to the pool. The receiver must not be used afterwards.
func (s *Span) End() {
	if s == nil || s.tr == nil {
		return
	}
	t := s.tr
	d := time.Since(s.start)
	t.observe(s.op, d)
	if s.sc.Sampled() {
		rec := SpanRecord{
			TraceID:  s.sc.TraceID,
			SpanID:   s.sc.SpanID,
			Parent:   s.parent,
			Op:       s.op,
			Peer:     s.peer,
			Start:    s.start,
			Duration: d,
			Err:      s.errStr,
			Bytes:    s.bytes,
			Remote:   s.remote,
		}
		t.rec.add(rec)
	}
	*s = Span{}
	t.pool.Put(s)
}

// observe records d into the op's latency histogram, creating and
// registering it on first use. The fast path is a read-locked map hit.
func (t *Tracer) observe(op string, d time.Duration) {
	t.histMu.RLock()
	h := t.hists[op]
	t.histMu.RUnlock()
	if h == nil {
		h = t.histogram(op)
		if h == nil {
			return
		}
	}
	h.ObserveDuration(d)
}

// histogram creates (or finds) the op's histogram under the write
// lock. Ops beyond the cap share nothing — their spans still record,
// only the histogram is skipped.
func (t *Tracer) histogram(op string) *telemetry.Histogram {
	t.histMu.Lock()
	defer t.histMu.Unlock()
	if h := t.hists[op]; h != nil {
		return h
	}
	if len(t.hists) >= maxOpHistograms {
		return nil
	}
	h := telemetry.NewHistogram(
		`gsi_op_seconds{op="`+telemetry.EscapeLabelValue(op)+`"}`,
		"Latency of traced operations by op kind.", nil)
	if t.reg != nil {
		// A second tracer on a shared registry (client+server in one
		// process) would collide per-op; first registration wins and
		// both observe their own instrument.
		if err := t.reg.Register(h); err != nil {
			if prev, ok := t.reg.Get(h.Name()); ok {
				if ph, ok := prev.(*telemetry.Histogram); ok {
					h = ph
				}
			}
		}
	}
	t.hists[op] = h
	return h
}

// Histogram exposes the op's latency histogram (nil when never
// observed). Test and admin surface.
func (t *Tracer) Histogram(op string) *telemetry.Histogram {
	if t == nil {
		return nil
	}
	t.histMu.RLock()
	defer t.histMu.RUnlock()
	return t.hists[op]
}
