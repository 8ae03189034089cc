// Package wire provides the deterministic length-prefixed binary encoding
// shared by the grid protocol messages (delegation, security-context
// tokens, journal records). All integers are big-endian; variable-length
// fields carry a uint32 length prefix.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/record"
)

// MaxField caps any single length-prefixed field at 16 MiB.
const MaxField = 1 << 24

// ErrTruncated is returned when a decoder runs out of input.
var ErrTruncated = errors.New("wire: truncated message")

// Encoder accumulates a message.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Reset points the encoder at buf (length preserved, appended to), so a
// message can be assembled directly into a caller-owned — typically
// pooled — buffer instead of an encoder-grown one. Returns e for
// chaining:
//
//	var e wire.Encoder
//	frame := e.Reset(buf[:headroom]).Str(op).Bytes(body).Finish()
func (e *Encoder) Reset(buf []byte) *Encoder {
	e.buf = buf
	return e
}

// Len returns the bytes accumulated so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) *Encoder { e.buf = append(e.buf, v); return e }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
	return e
}

// I64 appends a big-endian int64.
func (e *Encoder) I64(v int64) *Encoder { return e.U64(uint64(v)) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) *Encoder {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) *Encoder {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Raw appends b verbatim — no length prefix. For fixed-size trailers
// (the GT2 trace-context field) that a Decoder recovers with Tail.
func (e *Encoder) Raw(b []byte) *Encoder {
	e.buf = append(e.buf, b...)
	return e
}

// Finish returns the accumulated message.
func (e *Encoder) Finish() []byte { return e.buf }

// Decoder consumes a message.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first error encountered.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(ErrTruncated)
		return false
	}
	return true
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a strict 0/1 byte.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(errors.New("wire: invalid boolean"))
		return false
	}
}

// Bytes reads a length-prefixed byte string (copied out of the input).
func (d *Decoder) Bytes() []byte {
	v := d.View()
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// View reads a length-prefixed byte string as a zero-copy view into the
// decoder's input. The view is only valid while the input buffer is —
// callers that retain the bytes past the buffer's lifetime (e.g. past a
// pooled buffer's Free) must copy.
func (d *Decoder) View() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxField {
		d.fail(fmt.Errorf("wire: field of %d bytes exceeds cap", n))
		return nil
	}
	if !d.need(int(n)) {
		return nil
	}
	v := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.View()) }

// Count validates a list length against a cap.
func (d *Decoder) Count(what string, max int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(max) {
		d.fail(fmt.Errorf("wire: %s count %d exceeds cap %d", what, n, max))
		return 0
	}
	return int(n)
}

// Tail consumes and returns a zero-copy view of exactly n trailing
// bytes — but only when exactly n bytes remain. Any other remainder
// (including none) leaves the decoder untouched and returns nil. This
// is how optional fixed-size trailers (the trace-context field on GT2
// exchange requests) ride behind an existing message layout without a
// version bump: absent on old senders, structurally unambiguous when
// present.
func (d *Decoder) Tail(n int) []byte {
	if d.err != nil || n <= 0 || len(d.b)-d.off != n {
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

// Done reports an error unless the input was fully consumed.
func (d *Decoder) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// WriteFrame writes a length-prefixed frame to w. Frames carry protocol
// tokens over stream transports. Prefix and payload are assembled in a
// pooled buffer and leave in one Write, so the prefix never travels as
// a packet of its own.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxField {
		return fmt.Errorf("wire: frame of %d bytes exceeds cap", len(payload))
	}
	buf := record.Get(4 + len(payload))
	defer buf.Free()
	binary.BigEndian.PutUint32(buf.B, uint32(len(payload)))
	n := copy(buf.B[4:], payload)
	_, err := w.Write(buf.B[:4+n])
	return err
}

// frameReadChunk bounds how much ReadFrame allocates ahead of the bytes
// actually arriving. A hostile length prefix announcing a jumbo frame
// that never materialises therefore costs the reader at most one chunk,
// not MaxField, of memory (pre-authentication allocation DoS).
const frameReadChunk = 64 << 10

// ReadFrame reads one length-prefixed frame from r. The payload buffer
// grows incrementally as bytes arrive — doubling from frameReadChunk up
// to the announced length — so the announced length is never trusted
// with an up-front allocation.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxField {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds cap", n)
	}
	if n <= frameReadChunk {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload := make([]byte, frameReadChunk)
	filled := 0
	for filled < n {
		if filled == len(payload) {
			grown := 2 * len(payload)
			if grown > n {
				grown = n
			}
			next := make([]byte, grown)
			copy(next, payload)
			payload = next
		}
		if _, err := io.ReadFull(r, payload[filled:]); err != nil {
			return nil, err
		}
		filled = len(payload)
	}
	return payload, nil
}
