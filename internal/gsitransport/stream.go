package gsitransport

import (
	"context"
	"errors"
	"io"

	"repro/internal/record"
)

// chunkSize is the DATA payload every stream cuts its bytes into.
const chunkSize = record.DefaultChunkSize

// chunkRecvHint pre-sizes record reads for streams: a full DATA chunk
// record (header + payload) plus the wrap expansion, so chunk reads hit
// one pool class and never grow.
const chunkRecvHint = record.ChunkHeader + chunkSize + SendOverhead

// ErrWriteHalfClosed reports a Write after CloseWrite.
var ErrWriteHalfClosed = errors.New("gsitransport: stream write half closed")

// Dir names the halves of a transfer this end drives. The protocol
// above the stream fixes it: a GridFTP GET only ever flows server to
// client, a facade stream flows both ways.
type Dir uint8

const (
	Send Dir = 1 << iota
	Recv
	Duplex = Send | Recv
)

// Stream is one secured byte transfer over one connection or K, chosen
// by len(conns) and nothing else.
//
// On one connection the bytes travel as chunk records on its record
// stream (record package, chunked mode): DATA records until the
// explicit FIN (or ERROR) terminal record. On K connections they are
// dealt round-robin over striped lanes (stripe.go), every lane ending
// with a FIN trailer that pins the chunk population. Either way the
// stream owns its connections' record streams while in flight — the
// protocol above decides when a stream starts and both ends must agree
// — each half is independently usable, and each half must be driven by
// a single goroutine at a time.
//
// Finish ends the transfer and is the only place the connections are
// handed back: synchronized and reusable after a clean end or a peer
// abort, broken after anything else.
type Stream struct {
	conns []*Conn
	c     *Conn // conns[0], the record stream of a one-connection transfer
	ctx   context.Context
	dir   Dir

	// One connection, send half.
	sender record.ChunkSender

	// Receive half: the unread remainder of the DATA chunk Read is
	// delivering, and on one connection its assembler.
	cur    []byte
	curBuf *record.Buf
	asm    record.Assembler
	rerr   error // terminal receive state: io.EOF after FIN, else the failure

	// K connections: the lanes of the halves dir names.
	w *stripedWriter
	r *stripedReader
}

// NewStream starts a duplex stream on c, with ctx governing every
// record it sends or receives. The caller's protocol must have put both
// ends in agreement that chunk records follow.
func NewStream(ctx context.Context, c *Conn) *Stream {
	return NewTransfer(ctx, []*Conn{c}, Duplex)
}

// NewTransfer starts a transfer over conns (index-aligned with the
// peer's), driving the halves dir names. The caller's protocol must
// have put both ends in agreement that chunk records for this one
// transfer follow on every connection.
func NewTransfer(ctx context.Context, conns []*Conn, dir Dir) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Stream{conns: conns, c: conns[0], ctx: ctx, dir: dir}
	if len(conns) == 1 {
		s.c.SetReceiveSizeHint(chunkRecvHint)
		return s
	}
	if dir&Send != 0 {
		s.w = newStripedWriter(ctx, conns)
	}
	if dir&Recv != 0 {
		s.r = newStripedReader(ctx, conns)
	}
	return s
}

// bulkWriteThreshold is the write size past which Write switches to the
// pipelined seal path: enough chunks that worker fan-out and vectored
// flushes pay for the pipeline's goroutines.
const bulkWriteThreshold = 4 * chunkSize

// Write splits p into DATA chunk records of at most DefaultChunkSize,
// each sealed straight from p into its frame. On one connection large
// writes take the pipelined path: chunks seal on worker goroutines in
// parallel and reach the wire as vectored batches, in exactly the byte
// order the serial path would have produced. On K connections the
// chunks are dealt across the lanes. Either way p is sealed before
// Write returns.
func (s *Stream) Write(p []byte) (int, error) {
	if len(s.conns) > 1 {
		return s.w.Write(p)
	}
	if s.sender.Terminated() {
		return 0, ErrWriteHalfClosed
	}
	if len(p) >= bulkWriteThreshold {
		return s.writeBulk(p)
	}
	written := 0
	for written < len(p) {
		piece := p[written:min(written+chunkSize, len(p))]
		if err := s.send(record.ChunkData, piece); err != nil {
			return written, err
		}
		written += len(piece)
	}
	return written, nil
}

// writeBulk drives p through a seal pipeline: chunk sequence numbers
// are stamped here in order, workers seal the chunks concurrently from
// p itself, and the pipeline's writer flushes consecutive ready frames
// through one vectored SendSealedBatch each. Close waits for every seal,
// so p is free again when writeBulk returns.
//
// It stays because it measures. On 2 vCPUs, the 16 MiB GridFTP
// PUT/GET workload (bench's bulk_transfer) ran 8% fewer transfers a
// second with this path replaced by the serial seal (medians 27.6 and
// 25.4 over 6 alternating pairs; the serial seal lost every pair). A
// matching open pipeline on the receive side measured no faster than
// the serial open (-0.6% over 10 pairs, inside the spread between
// runs), so receiving has none.
func (s *Stream) writeBulk(p []byte) (int, error) {
	pl := record.NewPipeline(s.c.Context(), 0, 0, func(frames [][]byte) error {
		return s.c.SendSealedBatch(s.ctx, frames)
	})
	written := 0
	for written < len(p) {
		piece := p[written:min(written+chunkSize, len(p))]
		seq, err := s.sender.Next(record.ChunkData, len(piece))
		if err == nil {
			err = pl.Submit(record.ChunkData, seq, piece)
		}
		if err != nil {
			pl.Close()
			return written, err
		}
		written += len(piece)
	}
	return written, pl.Close()
}

// CloseWrite terminates the send half cleanly with the FIN record (on
// every lane, carrying the chunk total). Idempotent: a second close
// sends nothing.
func (s *Stream) CloseWrite() error {
	if len(s.conns) > 1 {
		return s.w.Close()
	}
	if s.sender.Terminated() {
		return nil
	}
	return s.send(record.ChunkFIN, nil)
}

// CloseWithError aborts the send half with an ERROR record carrying
// msg; the peer's reads fail with a *record.PeerError. No-op if the
// half is already terminated.
func (s *Stream) CloseWithError(msg string) error {
	if len(s.conns) > 1 {
		return s.w.CloseWithError(msg)
	}
	if s.sender.Terminated() {
		return nil
	}
	return s.send(record.ChunkError, []byte(msg))
}

// send stamps the next chunk of type typ and seals it from payload
// straight onto the connection.
func (s *Stream) send(typ record.ChunkType, payload []byte) error {
	seq, err := s.sender.Next(typ, len(payload))
	if err != nil {
		return err
	}
	return s.c.SendChunk(s.ctx, typ, seq, payload)
}

// lostBeforeFIN is the receive failure for a record stream that ended
// (err, possibly nil) before the terminal record. A connection closed at
// a record boundary reads as io.EOF, which a stream reports only for
// FIN: a truncated transfer must never look complete.
func lostBeforeFIN(err error) error {
	if err == nil || err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// next hands over the next DATA payload in stream order — first the
// unread rest of the one Read was delivering — with the pooled record
// buffer behind it, which the caller frees. Given a non-nil dst, a
// payload arriving on one connection opens straight onto dst's end
// instead: next returns dst grown by it, and no payload or buffer. After
// the peer's FIN it reports io.EOF; after an abort, the
// *record.PeerError. A sequence violation breaks the connection.
func (s *Stream) next(dst []byte) (payload []byte, buf *record.Buf, out []byte, err error) {
	if len(s.cur) > 0 {
		payload, buf = s.cur, s.curBuf
		s.cur, s.curBuf = nil, nil
		return payload, buf, dst, nil
	}
	if s.r != nil {
		payload, buf, err = s.r.next()
		return payload, buf, dst, err
	}
	for s.rerr == nil {
		rec, out, buf, err := s.c.ReceiveChunk(s.ctx, dst)
		if err != nil {
			s.rerr = lostBeforeFIN(err)
			break
		}
		payload, fin, err := s.asm.Accept(rec)
		switch {
		case err != nil:
			buf.Free()
			var peerErr *record.PeerError
			if !errors.As(err, &peerErr) {
				// Sequence violation or garbage: the record stream can no
				// longer be trusted.
				s.c.broken.Store(true)
			}
			s.rerr = err
		case fin:
			buf.Free()
			s.rerr = io.EOF
			s.c.SetReceiveSizeHint(0)
		case len(out) > len(dst):
			buf.Free() // opened onto dst: rec was the header alone
			return nil, nil, out, nil
		case len(payload) == 0:
			buf.Free() // empty DATA chunk: keep reading
		default:
			return payload, buf, dst, nil
		}
	}
	return nil, nil, dst, s.rerr
}

// Read returns stream bytes as the peer's DATA chunks arrive, io.EOF
// after its FIN (on K connections: once every lane's FIN agrees the
// stream is complete), and a *record.PeerError if the peer aborted.
func (s *Stream) Read(p []byte) (int, error) {
	if len(s.cur) == 0 {
		if len(p) == 0 {
			return 0, nil
		}
		var err error
		if s.cur, s.curBuf, _, err = s.next(nil); err != nil {
			return 0, err
		}
	}
	n := copy(p, s.cur)
	if s.cur = s.cur[n:]; len(s.cur) == 0 {
		s.curBuf.Free()
		s.curBuf = nil
	}
	return n, nil
}

// WriteTo delivers the rest of the stream to w, each DATA payload
// straight out of the record buffer it was opened in — the copy a Read
// loop makes through its caller's buffer is the one skipped, no check
// is — and ends like Read does, with nil for io.EOF. An error from w
// ends it early; Finish still settles the connections.
func (s *Stream) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for {
		payload, buf, _, err := s.next(nil)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		m, err := w.Write(payload)
		buf.Free()
		n += int64(m)
		if err == nil && m < len(payload) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return n, err
		}
	}
}

// ReadAll consumes the stream to FIN and returns every payload byte in
// one slice preallocated to sizeHint, through the same next as Read and
// WriteTo. On one connection each payload opens straight onto the
// slice; on K, each is copied there from its record buffer, since where
// a striped chunk goes is known only once every earlier one has arrived.
// Records open serially, in arrival order.
func (s *Stream) ReadAll(sizeHint int) ([]byte, error) {
	out := make([]byte, 0, max(sizeHint, 0))
	for {
		payload, buf, grown, err := s.next(out)
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return out, err
		}
		out = append(grown, payload...)
		buf.Free()
	}
}

// Finish ends the transfer and settles its connections; nothing else
// does. The send half (if this end drives one and it is still open)
// terminates with the ERROR record carrying cause's text, or FIN when
// cause is nil; the receive half (if any) is consumed to the peer's
// terminal record. The result says what became of the connections:
//
//   - nil: both halves ended cleanly; every connection is synchronized
//     at a record boundary and reusable.
//   - a *record.PeerError: the peer aborted. Its terminal record
//     resynchronized every connection just the same; they are reusable.
//   - anything else: a record was lost, late or out of order. Every
//     connection is broken, and no read of this stream ever reported a
//     clean end — a truncated transfer cannot look complete.
//
// The stream must not be used afterwards.
func (s *Stream) Finish(cause error) error {
	err := s.terminate(cause)
	var peerErr *record.PeerError
	clean := err == nil || errors.As(err, &peerErr)
	switch {
	case s.r != nil:
		s.r.settle(clean)
	case clean:
		s.c.SetReceiveSizeHint(0)
	default:
		for _, c := range s.conns {
			c.abortReads()
		}
	}
	if s.curBuf != nil {
		s.curBuf.Free()
		s.cur, s.curBuf = nil, nil
	}
	return err
}

// terminate runs the wire half of Finish: terminal record out, peer's
// terminal record in.
func (s *Stream) terminate(cause error) error {
	if s.dir&Send != 0 {
		var err error
		if cause != nil {
			err = s.CloseWithError(cause.Error())
		} else {
			err = s.CloseWrite()
		}
		if err != nil {
			return err
		}
	}
	if s.dir&Recv == 0 {
		return nil
	}
	_, err := s.WriteTo(io.Discard)
	return err
}
