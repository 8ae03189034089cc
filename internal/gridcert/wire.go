package gridcert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The gridcert wire format is a deterministic, length-prefixed binary
// encoding (a simplified DER). Determinism matters: the to-be-signed bytes
// of a certificate must encode identically on every host, or signatures
// would not verify. All integers are big-endian; byte strings and strings
// are prefixed with a uint32 length.

// errTruncated is returned when a decoder runs out of input.
var errTruncated = errors.New("gridcert: truncated encoding")

const maxFieldLen = 1 << 24 // 16 MiB cap on any single field

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *encoder) i64(v int64) { e.u64(uint64(v)) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) str(s string) { e.bytes([]byte(s)) }

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.fail(errTruncated)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(errors.New("gridcert: invalid boolean encoding"))
		return false
	}
}

// view returns the next length-prefixed field as a slice of the input.
func (d *decoder) view() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxFieldLen {
		d.fail(fmt.Errorf("gridcert: field length %d exceeds cap", n))
		return nil
	}
	if !d.need(int(n)) {
		return nil
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off : d.off]
}

// bytes returns a copy of the next length-prefixed field.
func (d *decoder) bytes() []byte {
	v := d.view()
	if v == nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

func (d *decoder) str() string { return string(d.bytes()) }

// done reports a decoding error if any input remains unconsumed.
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("gridcert: %d trailing bytes after encoding", len(d.b)-d.off)
	}
	return nil
}

// checkCount guards list lengths read from untrusted input.
func (d *decoder) count(what string, n uint32, max int) int {
	if d.err != nil {
		return 0
	}
	if n > uint32(max) || n > math.MaxInt32 {
		d.fail(fmt.Errorf("gridcert: %s count %d exceeds cap %d", what, n, max))
		return 0
	}
	return int(n)
}
