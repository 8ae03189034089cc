package gsi

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/soap"
	"repro/internal/trace"
)

// setTraceHeader attaches the ctx span's wire context to env as a
// SOAP header — deliberately outside the signed header set, so
// tracing never perturbs WS-Security signatures. No-op when the
// operation is untraced.
func setTraceHeader(ctx context.Context, env *soap.Envelope) {
	if sp := trace.SpanFromContext(ctx); sp != nil {
		env.SetHeader(trace.SOAPHeader, sp.Context().Encode(make([]byte, 0, trace.EncodedLen)))
	}
}

// Tracer is the facade's end-to-end tracer: spans for every traced
// exchange and stream, per-op latency histograms in
// the metrics registry, and a bounded flight recorder queryable live
// via Tracer().Recorder(), the gsi.__admin Traces op, or gsictl
// traces. A nil *Tracer is valid and inert.
type Tracer = trace.Tracer

// TraceQuery selects spans from the flight recorder (slowest-N,
// by-op, by-peer-DN, errors-only, or one full trace by id).
type TraceQuery = trace.Query

// WithTracing enables end-to-end tracing on a Client or Server: every
// exchange and stream open produces a causally
// linked trace whose context crosses the wire on both transports, so
// the client's spans and the server's spans share one trace id.
// Tracing is materialized by NewClient/NewServer; with WithMetrics
// also set, per-op latency histograms (gsi_op_seconds) land in the
// same registry. Disabled tracing costs nothing on the hot path.
func WithTracing() Option {
	return func(s *settings) error {
		s.traceEnable = true
		return nil
	}
}

// buildTracer materializes the handle's tracer when WithTracing asked
// for one.
func (s *settings) buildTracer() {
	if s.traceEnable {
		s.tracer = trace.New(trace.Config{Registry: s.metrics})
	}
}

// Tracer returns the client's tracer (nil unless WithTracing was set
// at NewClient).
func (c *Client) Tracer() *Tracer { return c.base.tracer }

// peerDNOf renders the peer's grid identity for span records.
func peerDNOf(p Peer) string { return p.Identity.String() }

// clientHandshakeSpan records the transport handshake as a
// retroactive child of sp when the session exposes precise timing
// (GT2 sessions carry it on the secured connection).
func clientHandshakeSpan(sp *trace.Span, sess Session) {
	if sp == nil {
		return
	}
	if g := gt2SessionOf(sess); g != nil {
		start, d := g.conn.HandshakeTiming()
		if d > 0 {
			sp.AddTimed("client.handshake", start, d, "")
		}
	}
}

// gt2SessionOf unwraps a facade Session to the GT2 session holding the
// transport connection, through any pool wrapper.
func gt2SessionOf(s Session) *gt2Session {
	for {
		switch v := s.(type) {
		case *gt2Session:
			return v
		case *pooledSession:
			s = v.sess
		default:
			return nil
		}
	}
}

// Tracer returns the server's tracer (nil unless WithTracing was set
// at NewServer).
func (s *Server) Tracer() *Tracer { return s.base.tracer }

// tracedStream wraps a Stream with span accounting: bytes and
// cumulative read and write time accumulate per direction, and Close
// ends the owning span after emitting one child span per direction.
type tracedStream struct {
	Stream
	sp   *trace.Span
	side string // "client" or "server": prefixes the child span ops

	opened  time.Time
	readNS  atomic.Int64
	writeNS atomic.Int64
	readB   atomic.Int64
	writeB  atomic.Int64
	closed  atomic.Bool
}

// newTracedStream wraps st; sp must be non-nil (callers skip wrapping
// when tracing is off).
func newTracedStream(st Stream, sp *trace.Span, side string) *tracedStream {
	return &tracedStream{Stream: st, sp: sp, side: side, opened: time.Now()}
}

func (t *tracedStream) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.Stream.Read(p)
	t.readNS.Add(int64(time.Since(start)))
	if n > 0 {
		t.readB.Add(int64(n))
	}
	return n, err
}

func (t *tracedStream) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.Stream.Write(p)
	t.writeNS.Add(int64(time.Since(start)))
	if n > 0 {
		t.writeB.Add(int64(n))
	}
	return n, err
}

// finish emits the per-direction child spans and ends the owning span
// exactly once.
func (t *tracedStream) finish(err error) {
	if !t.closed.CompareAndSwap(false, true) {
		return
	}
	// Each child span carries the time spent inside Read or Write: a
	// read opens records serially, a large write seals them through the
	// seal pipeline and a small one does not.
	if ns := t.readNS.Load(); ns > 0 || t.readB.Load() > 0 {
		t.sp.AddTimed(t.side+".stream.read", t.opened, time.Duration(ns), "")
	}
	if ns := t.writeNS.Load(); ns > 0 || t.writeB.Load() > 0 {
		t.sp.AddTimed(t.side+".stream.write", t.opened, time.Duration(ns), "")
	}
	t.sp.AddBytes(t.readB.Load() + t.writeB.Load())
	t.sp.SetError(err)
	t.sp.End()
}

func (t *tracedStream) Close() error {
	err := t.Stream.Close()
	t.finish(err)
	return err
}
