package record

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
)

// Pipelined seal: the single-connection multicore send path. The
// record protocol requires wire order to equal sequence order, which a
// lock around the whole seal trivially guarantees — at the price of one
// core. The pipeline splits the two concerns: sequence numbers are
// *reserved* in submission order (cheap, on the submitting goroutine),
// the AEAD work runs on worker goroutines in parallel, and a writer
// reassembles completed frames back into submission order before they
// touch the wire. Record N+1 seals while record N is in flight; the
// peer observes exactly the byte stream the serial path would have
// produced. Receiving has no such pipeline: records open serially
// (Read), which measured as fast end to end.

// PipelinedProtector is the explicit-sequence extension of Protector
// that the pipeline needs. gss.Context implements it.
type PipelinedProtector interface {
	Protector
	// ReserveWrap claims the next wrap sequence number, in submission
	// order, without sealing.
	ReserveWrap() (uint64, error)
	// WrapAtInto seals under a reserved sequence number; safe for
	// concurrent use across distinct reservations.
	WrapAtInto(seq uint64, dst, plaintext []byte) ([]byte, error)
}

// DefaultPipelineWindow bounds how many records may be in flight
// (reserved but not yet written) in a pipeline. Window × chunk size is
// the memory bound: 16 × 256 KiB = 4 MiB.
const DefaultPipelineWindow = 16

// PipelineWorkers picks a worker count for n requested workers: n if
// positive, else one per core capped at 8 (past that the memory bus,
// not the AES units, is the limiter for GCM).
func PipelineWorkers(n int) int {
	if n > 0 {
		return n
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

type sealTask struct {
	seq   uint64
	buf   *Buf
	n     int // plaintext length at offset Headroom
	frame []byte
	err   error
	done  chan struct{}
}

// Pipeline is the seal half: Submit hands it assembled plaintext
// frames, workers seal them concurrently, and completed frames reach
// the sink — batched, in submission order — ready for a vectored
// write. A Pipeline serves one Protector send direction; submissions
// must come from one goroutine. Any failure poisons the pipeline (and
// with it the connection: a reserved-but-unsent sequence number is a
// hole the peer's opener would refuse anyway).
type Pipeline struct {
	p      PipelinedProtector
	sink   func(frames [][]byte) error
	tasks  chan *sealTask
	order  chan *sealTask
	wg     sync.WaitGroup
	wrDone chan struct{}

	mu  sync.Mutex
	err error
}

// maxFlushBatch caps how many frames one sink call may carry (the
// writev iovec budget).
const maxFlushBatch = 32

// NewPipeline starts a seal pipeline with the given worker count
// (0 = PipelineWorkers default) and in-flight window (0 =
// DefaultPipelineWindow). sink is called from the writer goroutine
// only, with frames in strict submission order.
func NewPipeline(p PipelinedProtector, workers, window int, sink func(frames [][]byte) error) *Pipeline {
	workers = PipelineWorkers(workers)
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	pl := &Pipeline{
		p:      p,
		sink:   sink,
		tasks:  make(chan *sealTask, window),
		order:  make(chan *sealTask, window),
		wrDone: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		pl.wg.Add(1)
		go pl.worker()
	}
	go pl.writer()
	return pl
}

func (pl *Pipeline) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.mu.Unlock()
}

// Err returns the first pipeline failure, if any.
func (pl *Pipeline) Err() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.err
}

// Submit hands the pipeline one frame: plaintext of n bytes assembled
// at offset Headroom(p) of buf, with WrapOverhead-WrapPrefix spare tail
// capacity (any Get(Headroom+n+WrapOverhead) buffer qualifies).
// Ownership of buf transfers to the pipeline, which frees it after the
// frame is written. Submit blocks when the in-flight window is full —
// that backpressure is the pipeline's memory bound.
func (pl *Pipeline) Submit(buf *Buf, n int) error {
	if err := pl.Err(); err != nil {
		buf.Free()
		return err
	}
	seq, err := pl.p.ReserveWrap()
	if err != nil {
		buf.Free()
		pl.fail(err)
		return err
	}
	t := &sealTask{seq: seq, buf: buf, n: n, done: make(chan struct{})}
	// The order channel is the window: it fills in submission order and
	// the writer drains it in the same order.
	pl.order <- t
	pl.tasks <- t
	return nil
}

func (pl *Pipeline) worker() {
	defer pl.wg.Done()
	hr := Headroom(pl.p)
	for t := range pl.tasks {
		token, err := pl.p.WrapAtInto(t.seq, t.buf.B[FramePrefix:FramePrefix], t.buf.B[hr:hr+t.n])
		switch {
		case err != nil:
			t.err = err
		case len(token) > MaxRecord:
			t.err = fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(token))
		case &token[0] == &t.buf.B[FramePrefix]:
			binary.BigEndian.PutUint32(t.buf.B[:FramePrefix], uint32(len(token)))
			t.frame = t.buf.B[:FramePrefix+len(token)]
		default:
			// The wrap outgrew the buffer (under-sized submission):
			// relocate into a correctly sized frame.
			nb := Get(FramePrefix + len(token))
			binary.BigEndian.PutUint32(nb.B[:FramePrefix], uint32(len(token)))
			copy(nb.B[FramePrefix:], token)
			t.buf.Free()
			t.buf = nb
			t.frame = nb.B[:FramePrefix+len(token)]
		}
		close(t.done)
	}
}

// writer drains completed tasks in submission order, batching every
// consecutively ready frame into one sink call.
func (pl *Pipeline) writer() {
	defer close(pl.wrDone)
	frames := make([][]byte, 0, maxFlushBatch)
	bufs := make([]*Buf, 0, maxFlushBatch)
	flush := func() {
		if len(frames) > 0 && pl.Err() == nil {
			if err := pl.sink(frames); err != nil {
				pl.fail(err)
			}
		}
		for _, b := range bufs {
			b.Free()
		}
		frames, bufs = frames[:0], bufs[:0]
	}
	collect := func(t *sealTask) {
		<-t.done
		if t.err != nil {
			pl.fail(t.err)
			t.buf.Free()
			return
		}
		frames = append(frames, t.frame)
		bufs = append(bufs, t.buf)
	}
	var carry *sealTask
	for {
		var t *sealTask
		if carry != nil {
			t, carry = carry, nil
		} else {
			var ok bool
			if t, ok = <-pl.order; !ok {
				flush()
				return
			}
		}
		collect(t)
		// Opportunistically batch successors that are already sealed;
		// stop at the first unfinished one so a slow worker never holds
		// finished frames off the wire.
	batching:
		for len(frames) < maxFlushBatch {
			select {
			case t2, ok := <-pl.order:
				if !ok {
					flush()
					return
				}
				select {
				case <-t2.done:
					collect(t2)
				default:
					carry = t2
					break batching
				}
			default:
				break batching
			}
		}
		flush()
	}
}

// Close flushes and stops the pipeline, returning its first error.
// Submit must not be called after (or concurrently with) Close.
func (pl *Pipeline) Close() error {
	close(pl.tasks)
	pl.wg.Wait()
	close(pl.order)
	<-pl.wrDone
	return pl.Err()
}
