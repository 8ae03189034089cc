// Package gsitransport implements the GT2-style secured transport: the
// GSS security-context handshake framed directly over a TCP (or any
// net.Conn) stream, followed by record-level message protection — the
// moral equivalent of the TLS-based protocol GT2 uses for authentication
// and message protection (paper §3).
//
// The GT3 counterpart carries the *same* handshake tokens inside SOAP
// envelopes (internal/wssec); benchmarking the two side by side
// reproduces the stateful-communication comparison of §5.1 (experiment E6).
package gsitransport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gss"
	"repro/internal/record"
	"repro/internal/wire"
)

// Headroom is the assembly headroom of this transport's record layer:
// callers of SendAssembled build their plaintext at this offset of the
// frame buffer so protection and framing happen in place (see
// internal/record).
const Headroom = record.FramePrefix + gss.WrapPrefix

// SendOverhead is the total per-record expansion a sender must budget
// spare buffer capacity for (headroom plus the AEAD trailer).
const SendOverhead = record.FramePrefix + gss.WrapOverhead

// aLongTimeAgo is a non-zero time far in the past, used to force pending
// reads and writes on a net.Conn to fail immediately when a context is
// canceled (the same trick the standard library's net/http uses).
var aLongTimeAgo = time.Unix(1, 0)

// deadlineScope selects which half of a connection a context governs,
// so a deadline armed for a send cannot interrupt (or be cleared by) a
// concurrent receive on the same full-duplex Conn.
type deadlineScope int

const (
	scopeBoth  deadlineScope = iota // serial use (handshake)
	scopeRead                       // Receive path
	scopeWrite                      // Send path
)

func (s deadlineScope) set(raw net.Conn, t time.Time) {
	switch s {
	case scopeRead:
		raw.SetReadDeadline(t)
	case scopeWrite:
		raw.SetWriteDeadline(t)
	default:
		raw.SetDeadline(t)
	}
}

// runWithContext executes op — a blocking read/write sequence on raw —
// under ctx: the context deadline is installed as the connection deadline
// for the given scope, and cancellation forces the in-flight operation to
// fail promptly. When the context ended, its error is returned in place
// of the induced I/O error.
func runWithContext(ctx context.Context, raw net.Conn, scope deadlineScope, op func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if deadline, ok := ctx.Deadline(); ok {
		scope.set(raw, deadline)
		defer scope.set(raw, time.Time{})
	}
	if ctx.Done() == nil {
		return op()
	}
	// The interrupt is armed on the context itself: no goroutine runs
	// unless the context ends.
	interrupted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		scope.set(raw, aLongTimeAgo)
		close(interrupted)
	})
	err := op()
	if !stop() {
		// The interrupt started: let it finish before the deadline is
		// cleared, or it could land after and poison the next operation.
		<-interrupted
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	// The socket deadline mirrors the context deadline and may fire a
	// hair earlier than the context's own timer; attribute the timeout
	// to the context rather than leaking a raw I/O error.
	if _, hasDeadline := ctx.Deadline(); hasDeadline {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return context.DeadlineExceeded
		}
	}
	if _, ok := ctx.Deadline(); !ok {
		scope.set(raw, time.Time{})
	}
	return err
}

// Throughput accounting, process-wide: every secured record leaving or
// entering through a Conn bumps these (plaintext byte counts — the
// protection overhead is a constant per record). Plain atomics keep the
// data path cost at one uncontended add per counter; telemetry exports
// snapshots at scrape time.
var (
	recordsSent     atomic.Uint64
	recordsReceived atomic.Uint64
	bytesSent       atomic.Uint64
	bytesReceived   atomic.Uint64
)

// Stats is a snapshot of the process-wide secured-record throughput.
type Stats struct {
	RecordsSent     uint64
	RecordsReceived uint64
	BytesSent       uint64 // plaintext bytes
	BytesReceived   uint64 // plaintext bytes
}

// Throughput snapshots the process-wide record/byte counters.
func Throughput() Stats {
	return Stats{
		RecordsSent:     recordsSent.Load(),
		RecordsReceived: recordsReceived.Load(),
		BytesSent:       bytesSent.Load(),
		BytesReceived:   bytesReceived.Load(),
	}
}

// Conn is a secured connection. It exposes message-oriented Send/Receive
// (GSI protects discrete records, not a byte stream) plus the underlying
// security context.
type Conn struct {
	raw net.Conn
	ctx *gss.Context

	sendMu sync.Mutex
	recvMu sync.Mutex

	// in is the one reader of raw: every token and record is read
	// through it (guarded by recvMu; the handshake runs before the Conn
	// is shared).
	in readAhead

	// recvHint pre-sizes the pooled buffer records are read into
	// (guarded by recvMu; 0 means the record layer's default).
	recvHint int

	// broken marks the record stream desynchronized: an interrupted
	// Send/Receive may have left a partial frame on the wire, after
	// which no further record can be trusted.
	broken atomic.Bool

	// Handshake timing, stashed for the tracing layer: a connection's
	// establishment happens before any exchange names a trace, so the
	// facade emits the handshake span retroactively — under the first
	// traced operation on the connection — from these.
	hsStart time.Time
	hsDur   time.Duration
}

func newConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, in: readAhead{raw: raw}}
}

// aheadSize is the read-ahead's buffer, the record pool's 4 KiB class.
const aheadSize = 4 << 10

// readAhead lets one socket read serve a record's length prefix and its
// body (and whatever followed them): a read smaller than aheadSize
// borrows a pooled buffer, fills it with one raw.Read and serves the
// next reads from it. The bytes past a record belong to the Conn, not
// to the record. The buffer is freed the moment its last byte is
// consumed, so an idle connection holds none (a bufio.Reader would pin
// one to every pooled session for life). Close does not free it: a
// reader may still hold it. A read of aheadSize or more while nothing is
// buffered goes straight to raw. Bytes that arrive with an error are
// kept and the error dropped: the next raw.Read reports it again.
type readAhead struct {
	raw      net.Conn
	buf      *record.Buf
	off, end int
}

func (r *readAhead) Read(p []byte) (int, error) {
	if r.buf == nil {
		if len(p) >= aheadSize {
			return r.raw.Read(p)
		}
		buf := record.Get(aheadSize)
		n, err := r.raw.Read(buf.B[:aheadSize])
		if n == 0 {
			buf.Free()
			return 0, err
		}
		r.buf, r.off, r.end = buf, 0, n
	}
	n := copy(p, r.buf.B[r.off:r.end])
	r.off += n
	if r.off == r.end {
		r.buf.Free()
		r.buf = nil
	}
	return n, nil
}

// Client performs the initiator handshake over raw.
func Client(raw net.Conn, cfg gss.Config) (*Conn, error) {
	return ClientContext(context.Background(), raw, cfg)
}

// ClientContext performs the initiator handshake over raw, honoring ctx:
// cancellation or deadline expiry aborts the handshake mid-flight, even
// while blocked reading a token from the peer.
func ClientContext(ctx context.Context, raw net.Conn, cfg gss.Config) (*Conn, error) {
	init, err := gss.NewInitiator(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn(raw)
	start := time.Now()
	err = runWithContext(ctx, raw, scopeBoth, func() error {
		t1, err := init.Start()
		if err != nil {
			return err
		}
		if err := c.writeToken(t1); err != nil {
			return fmt.Errorf("gsitransport: sending token1: %w", err)
		}
		t2, err := c.readToken()
		if err != nil {
			return fmt.Errorf("gsitransport: reading token2: %w", err)
		}
		t3, gctx, err := init.Finish(t2)
		if err != nil {
			return err
		}
		if err := c.writeToken(t3); err != nil {
			return fmt.Errorf("gsitransport: sending token3: %w", err)
		}
		c.ctx = gctx
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.hsStart, c.hsDur = start, time.Since(start)
	gss.ObserveHandshake(c.hsDur)
	return c, nil
}

// Server performs the acceptor handshake over raw.
func Server(raw net.Conn, cfg gss.Config) (*Conn, error) {
	return ServerContext(context.Background(), raw, cfg)
}

// ServerContext performs the acceptor handshake over raw, honoring ctx.
func ServerContext(ctx context.Context, raw net.Conn, cfg gss.Config) (*Conn, error) {
	acc, err := gss.NewAcceptor(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn(raw)
	start := time.Now()
	err = runWithContext(ctx, raw, scopeBoth, func() error {
		t1, err := c.readToken()
		if err != nil {
			return fmt.Errorf("gsitransport: reading token1: %w", err)
		}
		t2, err := acc.Accept(t1)
		if err != nil {
			return err
		}
		if err := c.writeToken(t2); err != nil {
			return fmt.Errorf("gsitransport: sending token2: %w", err)
		}
		t3, err := c.readToken()
		if err != nil {
			return fmt.Errorf("gsitransport: reading token3: %w", err)
		}
		gctx, err := acc.Complete(t3)
		if err != nil {
			return err
		}
		c.ctx = gctx
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.hsStart, c.hsDur = start, time.Since(start)
	gss.ObserveHandshake(c.hsDur)
	return c, nil
}

// HandshakeTiming returns when establishment began and how long it
// took — the tracing layer's source for retroactive handshake spans.
func (c *Conn) HandshakeTiming() (start time.Time, d time.Duration) {
	return c.hsStart, c.hsDur
}

func (c *Conn) writeToken(tok []byte) error { return wire.WriteFrame(c.raw, tok) }

func (c *Conn) readToken() ([]byte, error) { return wire.ReadFrame(&c.in) }

// Context returns the established security context.
func (c *Conn) Context() *gss.Context { return c.ctx }

// Broken reports whether an interrupted Send or Receive desynchronized
// the record stream (after which every operation returns ErrBroken).
func (c *Conn) Broken() bool { return c.broken.Load() }

// Healthy is the cheap, I/O-free liveness check a connection pool runs
// before reusing an idle connection: the record stream is intact and
// the security context has not lapsed. It cannot observe a peer that
// vanished silently — that is what an application-level probe (or the
// first failed exchange, which poisons the conn) is for.
func (c *Conn) Healthy() bool {
	return !c.broken.Load() && c.ctx != nil && !c.ctx.Expired()
}

// Peer returns the authenticated remote party.
func (c *Conn) Peer() gss.Peer { return c.ctx.Peer() }

// Send protects and transmits one message.
func (c *Conn) Send(msg []byte) error {
	return c.SendContext(context.Background(), msg)
}

// ErrBroken marks a connection whose record stream was desynchronized
// by an interrupted Send or Receive; only Close is useful afterwards.
var ErrBroken = errors.New("gsitransport: connection broken by interrupted operation")

// SendContext is Send honoring ctx cancellation and deadlines. An
// interruption mid-frame poisons the connection (ErrBroken thereafter):
// a partial frame on the wire makes every later record unparseable.
// The message is sealed straight into a pooled record buffer (one
// cryptographic pass, no intermediate copy) and leaves in one write.
func (c *Conn) SendContext(ctx context.Context, msg []byte) error {
	return c.send(ctx, len(msg), func() error { return record.SealAndWrite(c.raw, c.ctx, msg) })
}

// SendAssembled protects and transmits a message assembled directly in
// a record buffer: the caller built its plaintext at offset Headroom of
// frame (reserving SendOverhead total spare capacity), so the record
// layer seals in place and writes the complete frame with a single
// Write — the zero-copy send path.
//
//	buf := record.Get(gsitransport.Headroom + n + gss.WrapOverhead - gss.WrapPrefix)
//	frame := append(buf.B[:gsitransport.Headroom], plaintext...)
//	err := conn.SendAssembled(ctx, frame)
//	buf.Free()
func (c *Conn) SendAssembled(ctx context.Context, frame []byte) error {
	return c.send(ctx, len(frame)-Headroom, func() error { return record.WriteAssembled(c.raw, c.ctx, frame) })
}

// SendChunk seals one chunk record — header typ and seq in the clear,
// payload sealed straight from where it lies — and transmits it in one
// write (record.WriteChunk), with SendContext's failure rules.
func (c *Conn) SendChunk(ctx context.Context, typ record.ChunkType, seq uint64, payload []byte) error {
	return c.send(ctx, record.ChunkHeader+len(payload), func() error {
		return record.WriteChunk(c.raw, c.ctx, typ, seq, payload)
	})
}

// send runs write, which puts one record of n plaintext bytes on raw,
// under the send lock and ctx, poisoning the connection if it fails.
func (c *Conn) send(ctx context.Context, n int, write func() error) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.broken.Load() {
		return ErrBroken
	}
	if err := ctx.Err(); err != nil {
		return err // nothing written yet; the stream is still intact
	}
	if err := runWithContext(ctx, c.raw, scopeWrite, write); err != nil {
		c.broken.Store(true)
		return err
	}
	recordsSent.Add(1)
	bytesSent.Add(uint64(n))
	return nil
}

// SendSealedBatch transmits already-sealed record frames — a seal
// pipeline's output — as one vectored write (net.Buffers → writev), so
// a batch of records costs one syscall and one TCP push instead of one
// per record. Frames must be complete wire frames (length prefix +
// wrap token), in sequence order; the batch either fully enters the
// stream or the connection is poisoned.
func (c *Conn) SendSealedBatch(ctx context.Context, frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.broken.Load() {
		return ErrBroken
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	// net.Buffers.WriteTo consumes its slice; keep the caller's intact.
	vecs := make(net.Buffers, len(frames))
	copy(vecs, frames)
	if err := runWithContext(ctx, c.raw, scopeWrite, func() error {
		_, err := vecs.WriteTo(c.raw)
		return err
	}); err != nil {
		c.broken.Store(true)
		return err
	}
	recordsSent.Add(uint64(len(frames)))
	bytesSent.Add(uint64(total - len(frames)*SendOverhead))
	return nil
}

// abortReads poisons the connection and forces a reader blocked in a
// record read to fail promptly (Finish uses it on a failed transfer, so
// no reader stays blocked on a connection that is already lost).
func (c *Conn) abortReads() {
	c.broken.Store(true)
	c.raw.SetReadDeadline(aLongTimeAgo)
}

// Receive reads and unprotects one message.
func (c *Conn) Receive() ([]byte, error) {
	return c.ReceiveContext(context.Background())
}

// ReceiveContext is Receive honoring ctx cancellation and deadlines. As
// with SendContext, an interruption mid-frame poisons the connection.
// The plaintext is copied out of the pooled record buffer; hot paths
// that can consume a view use ReceiveView instead.
func (c *Conn) ReceiveContext(ctx context.Context) ([]byte, error) {
	view, buf, err := c.ReceiveView(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(view))
	copy(out, view)
	buf.Free()
	return out, nil
}

// ReceiveView reads one record into a pooled buffer and unprotects it
// in place, returning the plaintext view together with the pooled
// buffer backing it. The caller owns the buffer and must Free it
// exactly once, after which the view is dead; bytes retained longer
// must be copied first.
func (c *Conn) ReceiveView(ctx context.Context) (view []byte, buf *record.Buf, err error) {
	err = c.receive(ctx, func() (int, error) {
		view, buf, err = record.Read(&c.in, c.ctx, 0, c.recvHint)
		return len(view), err
	})
	return view, buf, err
}

// ReceiveChunk reads one chunk record and opens it (record.ReadChunk):
// with dst nil, in place — rec is header and payload, a view into the
// returned buffer, which the caller frees; otherwise a DATA payload
// opens onto dst's end and out is dst grown by it. ReceiveView's failure
// rules apply.
func (c *Conn) ReceiveChunk(ctx context.Context, dst []byte) (rec, out []byte, buf *record.Buf, err error) {
	out = dst
	err = c.receive(ctx, func() (int, error) {
		rec, out, buf, err = record.ReadChunk(&c.in, c.ctx, dst, c.recvHint)
		return len(rec) + len(out) - len(dst), err
	})
	return rec, out, buf, err
}

// receive runs read, which takes one record of n plaintext bytes off the
// read-ahead, under the receive lock and ctx, poisoning the connection
// if it fails.
func (c *Conn) receive(ctx context.Context, read func() (n int, err error)) error {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.broken.Load() {
		return ErrBroken
	}
	if err := ctx.Err(); err != nil {
		return err // nothing read yet; the stream is still intact
	}
	var n int
	if err := runWithContext(ctx, c.raw, scopeRead, func() (err error) {
		n, err = read()
		return err
	}); err != nil {
		c.broken.Store(true)
		return err
	}
	recordsReceived.Add(1)
	bytesReceived.Add(uint64(n))
	return nil
}

// SetReceiveSizeHint tunes the pooled buffer the next records are read
// into (0 restores the default). Streams set it to the chunk-record
// size so chunk reads never grow through the size classes.
func (c *Conn) SetReceiveSizeHint(n int) {
	c.recvMu.Lock()
	c.recvHint = n
	c.recvMu.Unlock()
}

// CloseOnDone arms a connection-lifetime cancellation watcher: when ctx
// ends, pending and future I/O on the connection fails promptly and the
// connection is marked broken. It replaces per-operation context
// watchers on serve loops — one goroutine per connection instead of a
// goroutine, two channels, and a timer dance per record. The returned
// stop function releases the watcher (idempotent).
func (c *Conn) CloseOnDone(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		select {
		case <-ctx.Done():
			c.broken.Store(true)
			c.raw.SetDeadline(aLongTimeAgo)
		case <-done:
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// handshakeTimeout bounds every acceptor handshake a Listener runs: a
// peer that connects and then sends nothing is dropped after it.
const handshakeTimeout = 10 * time.Second

// Listener wraps a net.Listener so every accepted connection completes
// the acceptor handshake with the given config before it is used.
type Listener struct {
	inner net.Listener
	cfg   gss.Config

	closeOnce sync.Once
	closeErr  error
}

// NewListener builds a secured listener.
func NewListener(inner net.Listener, cfg gss.Config) *Listener {
	return &Listener{inner: inner, cfg: cfg}
}

// Accept waits for a connection and completes the security handshake.
func (l *Listener) Accept() (*Conn, error) {
	raw, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.handshake(context.Background(), raw)
}

// Serve accepts connections until the listener is closed or ctx ends
// (which closes it). Each connection's handshake runs on its own
// goroutine under handshakeTimeout, and handle gets the established
// Conn on that goroutine, so a silent peer holds up only itself. A
// failed handshake closes its connection; serving goes on. Any other
// Accept error (EMFILE while silent peers hold every descriptor, say)
// is retried after a pause that doubles from 5 ms up to 1 s and resets
// on the next accepted connection, so the loop does not spin.
func (l *Listener) Serve(ctx context.Context, handle func(*Conn)) {
	stop := context.AfterFunc(ctx, func() { l.Close() })
	defer stop()
	var delay time.Duration
	for {
		raw, err := l.inner.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
			continue
		}
		delay = 0
		go func() {
			if conn, err := l.handshake(ctx, raw); err == nil {
				handle(conn)
			}
		}()
	}
}

// handshake runs the acceptor handshake on raw under ctx and
// handshakeTimeout, closing raw if it fails.
func (l *Listener) handshake(ctx context.Context, raw net.Conn) (*Conn, error) {
	ctx, cancel := context.WithTimeout(ctx, handshakeTimeout)
	defer cancel()
	conn, err := ServerContext(ctx, raw, l.cfg)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return conn, nil
}

// Close closes the inner listener. It is idempotent: every call reports
// the first close's result.
func (l *Listener) Close() error {
	l.closeOnce.Do(func() { l.closeErr = l.inner.Close() })
	return l.closeErr
}

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Dial connects to addr over TCP and completes the initiator handshake.
func Dial(addr string, cfg gss.Config) (*Conn, error) {
	return DialContext(context.Background(), addr, cfg)
}

// DialContext is Dial honoring ctx for both the TCP connect and the
// security handshake. TCP keepalive is enabled so pooled connections
// parked idle detect dead peers at the transport layer.
func DialContext(ctx context.Context, addr string, cfg gss.Config) (*Conn, error) {
	d := net.Dialer{KeepAlive: 15 * time.Second}
	raw, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := ClientContext(ctx, raw, cfg)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return conn, nil
}
