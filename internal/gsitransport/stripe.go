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

// laneFrame is one chunk record for a lane to seal and send: payload is
// the writer's, sealed from where it lies.
type laneFrame struct {
	typ     record.ChunkType
	seq     uint64
	payload []byte
}

// stripedWriter fans one stream over K connections. Chunks are
// sequence-stamped by the writing goroutine; each stripe has a sender
// goroutine sealing them from the writer's bytes and writing on its own
// connection, so K stripes drive up to K cores. Not safe for concurrent
// Write.
type stripedWriter struct {
	ctx    context.Context
	lanes  []chan laneFrame
	sender record.ChunkSender // global sequence numbers; FIN's is the total
	closed bool
	wg     sync.WaitGroup // the lane goroutines
	queued sync.WaitGroup // frames handed to lanes and not yet sent

	mu  sync.Mutex
	err error
}

// laneDepth bounds the per-stripe queue of stamped-but-unsent chunks.
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

// runLane seals and sends its queue. After a failure it keeps draining,
// sending nothing, so the writing goroutine never blocks on a dead
// lane's queue or waits on its frames.
func (w *stripedWriter) runLane(c *Conn, ch chan laneFrame) {
	defer w.wg.Done()
	var err error
	for f := range ch {
		if err == nil {
			if err = c.SendChunk(w.ctx, f.typ, f.seq, f.payload); err != nil {
				w.fail(err)
			}
		}
		w.queued.Done()
	}
}

// queue hands one chunk to the lane its sequence number deals it to.
func (w *stripedWriter) queue(lane int, f laneFrame) {
	w.queued.Add(1)
	w.lanes[lane] <- f
}

// Write deals p across the stripes as globally sequenced DATA chunks,
// and returns once every one of them is sealed: the lanes seal from p
// itself, which is the caller's again afterwards.
func (w *stripedWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrWriteHalfClosed
	}
	written := 0
	for written < len(p) && w.Err() == nil {
		piece := p[written:min(written+chunkSize, len(p))]
		seq, _ := w.sender.Next(record.ChunkData, len(piece)) // cannot fail: the half is open, piece a chunk at most
		w.queue(int(seq%uint64(len(w.lanes))), laneFrame{record.ChunkData, seq, piece})
		written += len(piece)
	}
	w.queued.Wait()
	return written, w.Err()
}

// terminate sends one terminal record on every stripe, then shuts the
// lanes.
func (w *stripedWriter) terminate(typ record.ChunkType, payload []byte) {
	seq, _ := w.sender.Next(typ, len(payload))
	for i := range w.lanes {
		w.queue(i, laneFrame{typ, seq, payload})
	}
}

// shut closes the lanes once, waits for them to flush, and returns the
// first failure.
func (w *stripedWriter) shut() error {
	if !w.closed {
		w.closed = true
		for _, lane := range w.lanes {
			close(lane)
		}
		w.wg.Wait()
	}
	return w.Err()
}

// Close sends the FIN trailer — total chunk count — on every stripe
// (unless a stripe already failed), waits for all lanes to flush, and
// returns the first failure.
func (w *stripedWriter) Close() error {
	if !w.closed && w.Err() == nil {
		w.terminate(record.ChunkFIN, nil)
	}
	return w.shut()
}

// CloseWithError aborts the transfer: every stripe carries the ERROR
// record so the receiver fails with a *record.PeerError no matter which
// stripe it reads first.
func (w *stripedWriter) CloseWithError(msg string) error {
	if !w.closed {
		w.terminate(record.ChunkError, []byte(msg))
	}
	return w.shut()
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
		view, _, buf, err := c.ReceiveChunk(ctx, nil)
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
