package wire

import (
	"bytes"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	enc := NewEncoder().
		U8(0xAB).U32(0xDEADBEEF).U64(0x0123456789ABCDEF).
		I64(-42).Bool(true).Bool(false).
		Bytes([]byte{1, 2, 3}).Str("hello")
	d := NewDecoder(enc.Finish())
	if d.U8() != 0xAB || d.U32() != 0xDEADBEEF || d.U64() != 0x0123456789ABCDEF {
		t.Fatal("unsigned round trip failed")
	}
	if d.I64() != -42 {
		t.Fatal("i64 round trip failed")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool round trip failed")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) || d.Str() != "hello" {
		t.Fatal("bytes/str round trip failed")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncation(t *testing.T) {
	full := NewEncoder().U64(7).Bytes([]byte("payload")).Finish()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		d.Bytes()
		if d.Done() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	d := NewDecoder(NewEncoder().U8(1).U8(2).Finish())
	d.U8()
	if err := d.Done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{7})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 7 accepted")
	}
}

func TestFieldLengthCap(t *testing.T) {
	// A length prefix claiming 2 GiB must be rejected before allocation.
	enc := NewEncoder().U32(1 << 31).Finish()
	d := NewDecoder(enc)
	if d.Bytes() != nil || d.Err() == nil {
		t.Fatal("oversized field accepted")
	}
}

func TestCount(t *testing.T) {
	d := NewDecoder(NewEncoder().U32(5).Finish())
	if n := d.Count("items", 10); n != 5 || d.Err() != nil {
		t.Fatalf("Count = %d err=%v", n, d.Err())
	}
	d2 := NewDecoder(NewEncoder().U32(100).Finish())
	if d2.Count("items", 10); d2.Err() == nil {
		t.Fatal("over-cap count accepted")
	}
}

func TestErrorsSticky(t *testing.T) {
	d := NewDecoder(nil)
	d.U64() // fails
	first := d.Err()
	d.Str()
	d.Bool()
	if d.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestFrames(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{9}, 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q != %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Fatal("oversized incoming frame accepted")
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxField+1)); err == nil {
		t.Fatal("oversized outgoing frame accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, []byte("full payload"))
	short := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// A hostile length prefix announcing a 16 MiB frame that never arrives
// must not cost the reader 16 MiB up front: ReadFrame grows its buffer
// incrementally as bytes arrive (pre-authentication allocation DoS).
func TestTruncatedJumboFrameAllocationBounded(t *testing.T) {
	// Header announces MaxField bytes; only 10 bytes follow.
	input := append([]byte{0x01, 0x00, 0x00, 0x00}, make([]byte, 10)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 16; i++ {
		if _, err := ReadFrame(bytes.NewReader(input)); err == nil {
			t.Fatal("truncated jumbo frame accepted")
		}
	}
	runtime.ReadMemStats(&after)
	// 16 truncated 16 MiB announcements must together cost far less than
	// one announced frame; the pre-fix code allocated 256 MiB here.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("truncated jumbo frames allocated %d bytes (announced length trusted up front)", grew)
	}
}

// Large frames still round-trip through the incremental reader.
func TestLargeFrameRoundTrip(t *testing.T) {
	payload := make([]byte, 3*frameReadChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large frame corrupted by incremental read")
	}
}

// Reset assembles into a caller-owned buffer without reallocating when
// capacity suffices, and View decodes without copying.
func TestResetAndView(t *testing.T) {
	buf := make([]byte, 4, 64)
	var e Encoder
	out := e.Reset(buf).Str("op").Bytes([]byte("body")).Finish()
	if &out[0] != &buf[:5][0] {
		t.Fatal("Reset encoder reallocated despite sufficient capacity")
	}
	if !bytes.Equal(out[:4], make([]byte, 4)) {
		t.Fatal("Reset clobbered the reserved prefix")
	}
	d := NewDecoder(out[4:])
	if op := d.View(); string(op) != "op" {
		t.Fatalf("op view = %q", op)
	}
	body := d.View()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if string(body) != "body" {
		t.Fatalf("body view = %q", body)
	}
	if &body[0] != &out[4+4+2+4] {
		t.Fatal("View copied instead of aliasing the input")
	}
}

// Property: any byte/string pair survives an encode/decode round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(b []byte, s string, u uint64, v int64, flag bool) bool {
		enc := NewEncoder().Bytes(b).Str(s).U64(u).I64(v).Bool(flag).Finish()
		d := NewDecoder(enc)
		gb := d.Bytes()
		gs := d.Str()
		gu := d.U64()
		gv := d.I64()
		gf := d.Bool()
		return d.Done() == nil && bytes.Equal(gb, b) && gs == s && gu == u && gv == v && gf == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: frames round-trip through a stream.
func TestPropertyFrames(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTail(t *testing.T) {
	trailer := []byte{1, 2, 3, 4, 5}
	msg := NewEncoder().Str("op").Bytes([]byte("body")).Finish()
	withTail := append(append([]byte(nil), msg...), trailer...)

	// Present: exactly n bytes remain after the fixed layout.
	d := NewDecoder(withTail)
	d.View()
	d.View()
	got := d.Tail(5)
	if string(got) != string(trailer) {
		t.Fatalf("Tail = %v, want %v", got, trailer)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	// Absent: Tail is nil and Done still passes.
	d = NewDecoder(msg)
	d.View()
	d.View()
	if d.Tail(5) != nil {
		t.Fatal("Tail invented a trailer")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	// Wrong remainder size: untouched, Done reports the trailing bytes.
	d = NewDecoder(withTail[:len(withTail)-1])
	d.View()
	d.View()
	if d.Tail(5) != nil {
		t.Fatal("Tail accepted a short remainder")
	}
	if d.Done() == nil {
		t.Fatal("trailing bytes accepted")
	}

	// Errored decoder: inert.
	d = NewDecoder([]byte{0xff})
	d.U32()
	d.U32()
	if d.Tail(1) != nil {
		t.Fatal("Tail ran on an errored decoder")
	}
}
