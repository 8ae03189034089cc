// Package record is the secure record layer shared by both grid
// transports: length-prefixed framing plus context protection over
// pooled, size-classed buffers. One record = one frame = one protected
// message; the layer seals and opens in place so the steady-state data
// path performs no per-record allocation and at most the cryptographic
// pass over the payload.
//
// Buffer-ownership rules (see DESIGN.md "Record layer & streaming"):
// every Buf obtained from Get must be released with exactly one Free;
// plaintext views returned by Read alias the Buf and die with it; a
// caller that retains bytes past Free must copy them first.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// FramePrefix is the length prefix every record carries on the wire.
const FramePrefix = 4

// MaxRecord caps a single record's announced payload, mirroring
// wire.MaxField so the two framings stay interchangeable.
const MaxRecord = 1 << 24

// Protector seals and opens record payloads under an established
// security context. gss.Context implements it; the indirection keeps
// this package free of the handshake layers above it.
type Protector interface {
	// WrapInto appends a protection token for plaintext to dst. Passing
	// dst ending exactly where plaintext begins minus WrapPrefix bytes
	// seals in place (see gss.Context.WrapInto).
	WrapInto(dst, plaintext []byte) ([]byte, error)
	// UnwrapInPlace opens a token, decrypting into the token's own
	// storage and returning the plaintext view.
	UnwrapInPlace(token []byte) ([]byte, error)
	// WrapPrefix is the header WrapInto prepends before the ciphertext.
	WrapPrefix() int
	// WrapOverhead is the token's total expansion over the plaintext.
	WrapOverhead() int
}

// Headroom returns the bytes to reserve at the front of an assembly
// buffer so WriteAssembled can frame and protect the payload in place.
func Headroom(p Protector) int { return FramePrefix + p.WrapPrefix() }

// --- pooled size-classed buffers ----------------------------------------

// classSizes are the pooled buffer capacities, chosen for the layer's
// workloads: small control messages, typical exchange payloads, the
// 64 KiB frame-read step, a full stream chunk record
// (DefaultChunkSize + headers), and two large classes for oversized
// whole-message shims. Requests beyond the largest class allocate
// unpooled.
var classSizes = [...]int{
	512,
	4 << 10,
	64 << 10,
	DefaultChunkSize + 4096,
	1 << 20,
	4 << 20,
}

var pools [len(classSizes)]sync.Pool

// Pool-pressure accounting, process-wide: a Get that finds its class
// pool empty allocates (a miss), a request beyond the largest class
// allocates unpooled (oversize). The counters are plain atomics so the
// hot path cost is one uncontended add per operation; telemetry
// exports them as scrape-time samples.
var (
	poolGets     atomic.Uint64
	poolMisses   atomic.Uint64
	poolOversize atomic.Uint64
	poolFrees    atomic.Uint64
)

// Stats is a snapshot of the buffer-pool pressure counters.
type Stats struct {
	// Gets counts every Get call, pooled or not.
	Gets uint64
	// Misses counts Gets that found their size-class pool empty and
	// allocated a fresh buffer.
	Misses uint64
	// Oversize counts Gets beyond the largest size class (unpooled
	// allocations that never return to a pool).
	Oversize uint64
	// Frees counts buffers returned to their pool.
	Frees uint64
}

// PoolStats snapshots the pool-pressure counters.
func PoolStats() Stats {
	return Stats{
		Gets:     poolGets.Load(),
		Misses:   poolMisses.Load(),
		Oversize: poolOversize.Load(),
		Frees:    poolFrees.Load(),
	}
}

// Buf is a pooled byte buffer. B always spans the full backing capacity;
// callers slice it as needed and must not grow it past cap.
type Buf struct {
	B     []byte
	class int8 // index into classSizes; -1 for unpooled
}

// Get returns a buffer with at least n usable bytes. Buffers come from
// per-size-class pools; callers must release them with Free exactly once.
func Get(n int) *Buf {
	poolGets.Add(1)
	for i, size := range classSizes {
		if n <= size {
			if b, ok := pools[i].Get().(*Buf); ok {
				return b
			}
			poolMisses.Add(1)
			return &Buf{B: make([]byte, size), class: int8(i)}
		}
	}
	poolOversize.Add(1)
	return &Buf{B: make([]byte, n), class: -1}
}

// Free returns the buffer to its pool. The caller must not touch B (or
// any view into it) afterwards. Free on nil is a no-op so cleanup paths
// can run unconditionally.
func (b *Buf) Free() {
	if b == nil || b.class < 0 {
		return
	}
	poolFrees.Add(1)
	pools[b.class].Put(b)
}

// --- sealed record I/O ---------------------------------------------------

// ErrFrameTooLarge reports a record whose announced length exceeds the
// reader's cap.
var ErrFrameTooLarge = errors.New("record: frame exceeds cap")

// WriteAssembled protects and writes a record whose plaintext was
// assembled at offset Headroom(p) of frame (the headroom holds the
// frame and wrap headers). Protection is applied in place and the
// complete frame leaves in a single Write, provided frame has
// p.WrapOverhead()-p.WrapPrefix() spare capacity; a caller that
// under-sized the buffer still gets a correct (two-write) frame.
func WriteAssembled(w io.Writer, p Protector, frame []byte) error {
	hr := Headroom(p)
	if len(frame) < hr {
		return fmt.Errorf("record: assembled frame of %d bytes is shorter than its %d-byte headroom", len(frame), hr)
	}
	token, err := p.WrapInto(frame[FramePrefix:FramePrefix], frame[hr:])
	if err != nil {
		return err
	}
	if len(token) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(token))
	}
	if &token[0] == &frame[FramePrefix] {
		// In-place seal: the frame is contiguous, one write suffices.
		binary.BigEndian.PutUint32(frame[:FramePrefix], uint32(len(token)))
		_, err = w.Write(frame[:FramePrefix+len(token)])
		return err
	}
	// The wrap grew past the buffer (caller under-sized it): frame the
	// relocated token with a separate header write.
	var hdr [FramePrefix]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(token)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(token)
	return err
}

// SealAndWrite protects an externally supplied plaintext: the token is
// sealed into a pooled frame buffer (one cryptographic pass, no
// intermediate copy) and written with a single Write.
func SealAndWrite(w io.Writer, p Protector, plaintext []byte) error {
	buf := Get(FramePrefix + len(plaintext) + p.WrapOverhead())
	defer buf.Free()
	token, err := p.WrapInto(buf.B[FramePrefix:FramePrefix], plaintext)
	if err != nil {
		return err
	}
	if len(token) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(token))
	}
	if &token[0] == &buf.B[FramePrefix] {
		binary.BigEndian.PutUint32(buf.B[:FramePrefix], uint32(len(token)))
		_, err = w.Write(buf.B[:FramePrefix+len(token)])
		return err
	}
	var hdr [FramePrefix]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(token)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(token)
	return err
}

// Read reads one record into a pooled buffer and opens it in place,
// returning the plaintext view together with the Buf that backs it —
// the caller owns the Buf and must Free it once the view is consumed.
// maxFrame caps the announced record length (0 means MaxRecord);
// sizeHint pre-sizes the pooled buffer so well-known record sizes
// (stream chunks, exchange replies) avoid growth copies, while hostile
// length prefixes never force more allocation than the bytes that
// actually arrive (the buffer grows through the size classes
// incrementally).
func Read(r io.Reader, p Protector, maxFrame, sizeHint int) ([]byte, *Buf, error) {
	token, buf, err := ReadSealed(r, maxFrame, sizeHint)
	if err != nil {
		return nil, nil, err
	}
	pt, err := p.UnwrapInPlace(token)
	if err != nil {
		buf.Free()
		return nil, nil, err
	}
	return pt, buf, nil
}

// ReadSealed reads one record's protection token without opening it,
// returning the token view and the pooled Buf that backs it: the frame
// half of Read, with the same caps and growth rules.
func ReadSealed(r io.Reader, maxFrame, sizeHint int) ([]byte, *Buf, error) {
	// The header is read into a pooled buffer (a stack array would
	// escape through the io.Reader interface and cost an allocation per
	// record), which small records then reuse as their payload buffer.
	buf := Get(FramePrefix)
	if _, err := io.ReadFull(r, buf.B[:FramePrefix]); err != nil {
		buf.Free()
		return nil, nil, err
	}
	n := int(binary.BigEndian.Uint32(buf.B))
	if maxFrame <= 0 || maxFrame > MaxRecord {
		maxFrame = MaxRecord
	}
	if n > maxFrame {
		buf.Free()
		return nil, nil, fmt.Errorf("%w: announced %d bytes, cap %d", ErrFrameTooLarge, n, maxFrame)
	}
	if n > len(buf.B) {
		first := n
		if hint := max(sizeHint, 64<<10); first > hint {
			first = hint
		}
		buf.Free()
		buf = Get(first)
	}
	filled := 0
	for {
		limit := min(len(buf.B), n)
		if _, err := io.ReadFull(r, buf.B[filled:limit]); err != nil {
			buf.Free()
			return nil, nil, err
		}
		filled = limit
		if filled == n {
			break
		}
		next := Get(min(2*len(buf.B), n))
		copy(next.B, buf.B[:filled])
		buf.Free()
		buf = next
	}
	return buf.B[:n], buf, nil
}
