package gsi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/gsitransport"
	"repro/internal/record"
	"repro/internal/trace"
)

// Stream is a secured, unbounded byte stream bound to one session —
// the record layer's chunked mode surfaced at the facade. Data crosses
// in DefaultChunkSize records through pooled buffers; each direction
// terminates with an explicit FIN record, and a mid-stream failure
// travels as an ERROR record that surfaces on the peer as a read error.
//
// The stream owns its session until Close: on a pooling client the
// session returns to the pool only when the stream has terminated
// cleanly (a broken stream discards the session instead of parking
// it). Each half must be driven by one goroutine at a time; Close is
// required even after errors.
type Stream interface {
	// Read returns peer bytes, io.EOF after its FIN, and the peer's
	// abort reason as an error if it failed mid-stream.
	io.Reader
	// Write ships bytes as chunk records.
	io.Writer
	// CloseWrite terminates the write half cleanly (FIN). Idempotent.
	CloseWrite() error
	// Close terminates the stream: the write half is FINed if still
	// open, the unread remainder of the read half is drained so the
	// session resynchronizes, and the session is released.
	Close() error
	// Peer is the authenticated remote party.
	Peer() Peer
}

// StreamHandler serves one opened stream on a Server: by the time it
// runs, the peer is authenticated and op authorized (once per stream,
// through the authorization pipeline when the server has one).
// Returning an error aborts the stream — the client observes it as a
// mid-stream ERROR record. The handler must not retain the stream past
// its return.
type StreamHandler func(ctx context.Context, peer Peer, op string, stream Stream) error

// errStreamsUnsupported marks sessions that cannot stream.
var errStreamsUnsupported = errors.New("gsi: session does not support streams")

// OpenStream on a Client: checks a session out (from the pool on a
// pooling client), opens a stream for op on it, and binds the session's
// release to the stream's Close.
func (c *Client) OpenStream(ctx context.Context, endpoint, op string) (Stream, error) {
	const opName = "gsi.Client.OpenStream"
	// The root span covers dial, open, every chunk, and Close; its
	// context crosses on the open round trip so the server's stream
	// span joins the same trace.
	var sp *trace.Span
	if tr := c.base.tracer; tr != nil {
		sp = tr.StartRoot("client.stream")
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	sess, err := c.Connect(ctx, endpoint)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, opErr(opName, err)
	}
	st, err := sess.OpenStream(ctx, op)
	if err != nil {
		sess.Close()
		sp.SetError(err)
		sp.End()
		return nil, opErr(opName, err)
	}
	var out Stream = &ownedStream{Stream: st, sess: sess}
	if sp != nil {
		sp.SetPeer(peerDNOf(st.Peer()))
		out = newTracedStream(out, sp, "client")
	}
	return out, nil
}

// ownedStream couples a stream to the session checkout that carries it.
// closed is atomic because the docs require Close even after errors, so
// a reader and a writer goroutine can legitimately race into it.
type ownedStream struct {
	Stream
	sess   Session
	closed atomic.Bool
}

// Close terminates the stream and releases the session. Both halves can
// fail independently — a stream-side failure must not mask a pool-side
// release failure (or vice versa), so the errors are joined.
func (o *ownedStream) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	return errors.Join(o.Stream.Close(), o.sess.Close())
}

func (o *ownedStream) WriteTo(w io.Writer) (int64, error) { return writeTo(o.Stream, w) }

// writeTo is a wrapper's WriteTo: st's own, or a plain copy without one.
func writeTo(st Stream, w io.Writer) (int64, error) {
	if wt, ok := st.(io.WriterTo); ok {
		return wt.WriteTo(w)
	}
	return io.Copy(w, st)
}

// --- GT2: chunk records on the connection's record stream ---------------

// OpenStream on a GT2 session: one gsi.__stream.open round trip
// (carrying op for server-side authorization), then the connection's
// record stream belongs to the chunk protocol until both halves FIN.
// The session is locked for the stream's duration.
func (s *gt2Session) OpenStream(ctx context.Context, op string) (Stream, error) {
	const opName = "gsi.Session.OpenStream"
	if op == "" || strings.HasPrefix(op, reservedOpPrefix) {
		return nil, opErr(opName, fmt.Errorf("gsi: invalid stream op %q", op))
	}
	s.mu.Lock()
	_, buf, err := s.roundTrip(ctx, streamOpenOp, []byte(op))
	if err != nil {
		s.mu.Unlock()
		return nil, opErr(opName, err)
	}
	buf.Free()
	return &gt2Stream{sess: s, pipe: gsitransport.NewStream(ctx, s.conn)}, nil
}

// gt2Stream is the client side of a GT2 stream: the session it rides
// stays locked until Close has resynchronized its connection, so a
// pooling client parks only clean sessions (a connection that could not
// resynchronize is left broken, which the pool observes via the health
// check at release).
type gt2Stream struct {
	sess   *gt2Session // locked for the stream's duration
	pipe   *gsitransport.Stream
	closed atomic.Bool
}

func (g *gt2Stream) Read(p []byte) (int, error) {
	n, err := g.pipe.Read(p)
	return n, streamErr(err)
}

// WriteTo hands w each payload uncopied, ending as Read does (nil for io.EOF).
func (g *gt2Stream) WriteTo(w io.Writer) (int64, error) {
	n, err := g.pipe.WriteTo(w)
	return n, streamErr(err)
}

func (g *gt2Stream) Write(p []byte) (int, error) {
	n, err := g.pipe.Write(p)
	return n, streamErr(err)
}

func (g *gt2Stream) CloseWrite() error { return streamErr(g.pipe.CloseWrite()) }

func (g *gt2Stream) Peer() Peer { return g.sess.conn.Peer() }

// Close terminates both halves and returns the connection to exchange
// mode, then unlocks the session.
func (g *gt2Stream) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	err := g.pipe.Finish(nil)
	if peerAborted(err) {
		// A peer abort surfaces through Read; as far as Close is concerned
		// its terminal record resynchronized the connection.
		err = nil
	}
	g.sess.mu.Unlock()
	return streamErr(err)
}

// peerAborted reports whether err is the peer's mid-stream abort — a
// clean termination of the stream as far as its connections go.
func peerAborted(err error) bool {
	var peerErr *record.PeerError
	return errors.As(err, &peerErr)
}

// streamErr classifies stream-level failures at the facade boundary.
// io.EOF passes through untouched — it is the io.Reader contract's
// clean-termination token, not a failure.
func streamErr(err error) error {
	if err == nil || err == io.EOF {
		return err
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	var peerErr *record.PeerError
	if errors.As(err, &peerErr) {
		return &Error{Op: "gsi.Stream", Err: err}
	}
	return &Error{Op: "gsi.Stream", Kind: classify(err), Err: err}
}

// serverGT2Stream is the handler-facing stream of a GT2 server.
// Termination and drain are owned by the serve loop (serveGT2Stream),
// so Close here only flushes the write half.
type serverGT2Stream struct {
	pipe *gsitransport.Stream
	peer Peer
}

func (s *serverGT2Stream) Read(p []byte) (int, error) {
	n, err := s.pipe.Read(p)
	return n, streamErr(err)
}

func (s *serverGT2Stream) WriteTo(w io.Writer) (int64, error) {
	n, err := s.pipe.WriteTo(w)
	return n, streamErr(err)
}

func (s *serverGT2Stream) Write(p []byte) (int, error) {
	n, err := s.pipe.Write(p)
	return n, streamErr(err)
}

func (s *serverGT2Stream) CloseWrite() error { return streamErr(s.pipe.CloseWrite()) }
func (s *serverGT2Stream) Close() error      { return streamErr(s.pipe.CloseWrite()) }
func (s *serverGT2Stream) Peer() Peer        { return s.peer }

// --- GT3: no streams ----------------------------------------------------

// OpenStream on a GT3 session: streams ride GT2 sessions, whose
// connection the chunk protocol can own; a conversation has none.
func (s *gt3Session) OpenStream(ctx context.Context, op string) (Stream, error) {
	return nil, opErr("gsi.Session.OpenStream", fmt.Errorf("%w: streams ride GT2 sessions", errStreamsUnsupported))
}

// OpenStream on a signed GT3 session: each signed message stands alone,
// so there is nothing to stream under either.
func (s *gt3SignedSession) OpenStream(ctx context.Context, op string) (Stream, error) {
	return nil, opErr("gsi.Session.OpenStream", fmt.Errorf("%w: streams ride GT2 sessions", errStreamsUnsupported))
}
