package gsitransport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/record"
)

// The K-connection lanes of a Stream: one logical byte stream fanned
// over K secured connections, GridFTP parallel-stripes style. The
// sender stamps every DATA chunk with a *global* sequence number before
// dealing it round-robin to a stripe, so each stripe's record protection
// covers the ordering information; the receiver reassembles through a
// windowed StripeAssembler. Every stripe terminates with a FIN whose
// sequence field carries the transfer's total chunk count — the FIN
// trailer — so a stripe that dies mid-flight always surfaces as an
// error, never as a silently truncated file (see internal/record's
// stripe.go for the invariant).

// ErrStripeAborted reports a striped transfer torn down by a failed Finish.
var ErrStripeAborted = errors.New("gsitransport: striped transfer aborted")

type laneFrame struct {
	buf *record.Buf
	n   int // chunk record length, assembled at offset Headroom
}

// stripedWriter fans one stream over K connections. Chunks are
// assembled and sequence-stamped by the writing goroutine; each stripe
// has a sender goroutine sealing and writing on its own connection, so
// K stripes drive up to K cores. Not safe for concurrent Write.
type stripedWriter struct {
	ctx     context.Context
	lanes   []chan laneFrame
	seq     uint64 // next global DATA chunk sequence number
	finSent bool
	closed  bool
	wg      sync.WaitGroup

	mu  sync.Mutex
	err error
}

// laneDepth bounds the per-stripe queue of assembled-but-unsent
// chunks; depth × chunk size × stripes is the sender-side memory bound.
const laneDepth = 4

// newStripedWriter starts a sender goroutine per connection.
func newStripedWriter(ctx context.Context, conns []*Conn) *stripedWriter {
	w := &stripedWriter{
		ctx:   ctx,
		lanes: make([]chan laneFrame, len(conns)),
	}
	for i, c := range conns {
		w.lanes[i] = make(chan laneFrame, laneDepth)
		w.wg.Add(1)
		go w.runLane(c, w.lanes[i])
	}
	return w
}

func (w *stripedWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Err returns the first stripe failure, if any.
func (w *stripedWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *stripedWriter) runLane(c *Conn, ch chan laneFrame) {
	defer w.wg.Done()
	for f := range ch {
		err := c.SendAssembled(w.ctx, f.buf.B[:Headroom+f.n])
		f.buf.Free()
		if err != nil {
			w.fail(err)
			break
		}
	}
	// After a failure keep draining so the writing goroutine never
	// blocks on a dead lane's queue.
	for f := range ch {
		f.buf.Free()
	}
}

// Write deals p across the stripes as globally sequenced DATA chunks.
func (w *stripedWriter) Write(p []byte) (int, error) {
	if w.finSent || w.closed {
		return 0, ErrWriteHalfClosed
	}
	written := 0
	for written < len(p) {
		if err := w.Err(); err != nil {
			return written, err
		}
		piece := p[written:]
		if len(piece) > chunkSize {
			piece = piece[:chunkSize]
		}
		buf := record.Get(Headroom + record.ChunkHeader + len(piece) + SendOverhead)
		rec := record.AppendChunk(buf.B[:Headroom], record.ChunkData, w.seq, piece)
		lane := int(w.seq % uint64(len(w.lanes)))
		w.seq++
		w.lanes[lane] <- laneFrame{buf: buf, n: len(rec) - Headroom}
		written += len(piece)
	}
	return written, nil
}

// terminate fans one terminal record (built by mk) to every stripe.
func (w *stripedWriter) terminate(mk func(dst []byte) []byte) {
	for _, lane := range w.lanes {
		buf := record.Get(Headroom + record.ChunkHeader + record.MaxErrorPayload + SendOverhead)
		rec := mk(buf.B[:Headroom])
		lane <- laneFrame{buf: buf, n: len(rec) - Headroom}
	}
}

// Close sends the FIN trailer — total chunk count — on every stripe,
// waits for all lanes to flush, and returns the first failure.
func (w *stripedWriter) Close() error {
	if !w.closed {
		w.closed = true
		if !w.finSent && w.Err() == nil {
			w.finSent = true
			total := w.seq
			w.terminate(func(dst []byte) []byte {
				return record.AppendChunk(dst, record.ChunkFIN, total, nil)
			})
		}
		for _, lane := range w.lanes {
			close(lane)
		}
		w.wg.Wait()
	}
	return w.Err()
}

// CloseWithError aborts the transfer: every stripe carries the ERROR
// record so the receiver fails with a *record.PeerError no matter which
// stripe it reads first.
func (w *stripedWriter) CloseWithError(msg string) error {
	if w.closed {
		return w.Err()
	}
	w.closed = true
	if !w.finSent {
		w.finSent = true
		seq := w.seq
		w.terminate(func(dst []byte) []byte {
			return record.AppendErrorChunk(dst, seq, msg)
		})
	}
	for _, lane := range w.lanes {
		close(lane)
	}
	w.wg.Wait()
	return w.Err()
}

// stripedReader reassembles one stream from K connections. A reader
// goroutine per stripe feeds a shared windowed assembler; next delivers
// the chunks in global sequence order. A connection that fails
// before its FIN fails the whole transfer.
type stripedReader struct {
	conns []*Conn
	wg    sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	asm  *record.StripeAssembler
	err  error
}

// newStripedReader starts a reader goroutine per connection, feeding a
// record.DefaultStripeWindow reassembly window.
func newStripedReader(ctx context.Context, conns []*Conn) *stripedReader {
	r := &stripedReader{
		conns: conns,
		asm:   record.NewStripeAssembler(len(conns), 0),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, c := range conns {
		c.SetReceiveSizeHint(chunkRecvHint)
		r.wg.Add(1)
		go r.runStripe(ctx, c)
	}
	return r
}

func (r *stripedReader) runStripe(ctx context.Context, c *Conn) {
	defer r.wg.Done()
	for {
		view, buf, err := c.ReceiveView(ctx)
		if err != nil {
			r.mu.Lock()
			if r.err == nil && !r.asm.Done() {
				// Dead stripe before its FIN: with the FIN trailer pinning
				// the chunk population this is always detected, never a
				// silent truncation.
				r.err = fmt.Errorf("gsitransport: stripe lost before FIN: %w", err)
			}
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		typ, seq, _, perr := record.ParseChunk(view)
		terminal := perr == nil && typ != record.ChunkData
		r.mu.Lock()
		// Flow control: a stripe that ran ahead of the delivery cursor
		// parks here until the consumer drains the window. Only DATA
		// chunks wait — FIN may legitimately carry a far-ahead total and
		// ERROR must overtake everything.
		for r.err == nil && perr == nil && typ == record.ChunkData && !r.asm.Fits(seq) {
			r.cond.Wait()
		}
		var peerErr *record.PeerError
		if r.err == nil {
			if r.err = r.asm.Accept(view, buf); r.err != nil && !errors.As(r.err, &peerErr) {
				c.broken.Store(true)
			}
			r.cond.Broadcast()
			if r.err == nil && !terminal {
				r.mu.Unlock()
				continue // the assembler holds buf until the chunk is popped
			}
		}
		// This lane's record flow is over (its terminal record arrived, or
		// the transfer failed) — unless the peer aborted: its ERROR record
		// travels on every lane behind that lane's in-flight DATA, so the
		// lane discards up to its own terminal record and hands its
		// connection back synchronized.
		discard := errors.As(r.err, &peerErr) && !terminal
		r.mu.Unlock()
		buf.Free()
		if !discard {
			if terminal {
				c.SetReceiveSizeHint(0)
			}
			return
		}
	}
}

// next hands over the next chunk in global order and the buffer behind
// it, which the caller frees; io.EOF after every stripe's FIN agrees
// the stream is complete. The lock is held to pop, never while the
// caller copies or writes the chunk, so the lanes keep seating theirs.
func (r *stripedReader) next() ([]byte, *record.Buf, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if payload, buf, ok := r.asm.Pop(); ok {
			// The cursor moved: wake stripes parked on the window.
			r.cond.Broadcast()
			if len(payload) == 0 {
				buf.Free() // empty DATA chunk
				continue
			}
			return payload, buf, nil
		}
		if r.asm.Done() {
			return nil, nil, io.EOF
		}
		if r.err != nil {
			return nil, nil, r.err
		}
		r.cond.Wait()
	}
}

// settle reaps the stripe goroutines at the end of the transfer and
// frees whatever chunks are still buffered. After a clean end or a peer
// abort every lane has consumed its terminal record and returns by
// itself, leaving the connections reusable; otherwise the lanes are
// torn down: every connection is poisoned so blocked stripe readers
// wake, and none is reusable afterwards.
func (r *stripedReader) settle(clean bool) {
	if !clean {
		r.mu.Lock()
		if r.err == nil {
			r.err = ErrStripeAborted
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		for _, c := range r.conns {
			c.abortReads()
		}
	}
	r.wg.Wait()
	r.mu.Lock()
	r.asm.Release()
	r.mu.Unlock()
}
