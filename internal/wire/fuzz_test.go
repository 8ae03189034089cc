package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecoder drives the decoder through the field sequences the grid
// messages actually use; malformed input must surface through Err/Done,
// never panic, and a fully consumed decode must round-trip.
func FuzzDecoder(f *testing.F) {
	f.Add(NewEncoder().Str("op").Bytes([]byte("body")).Finish())
	f.Add(NewEncoder().U8(3).U8(1).Bytes(make([]byte, 32)).Bytes(make([]byte, 32)).Finish())
	f.Add(NewEncoder().U64(42).Bytes([]byte("ct")).Finish())
	f.Add(NewEncoder().Bool(true).I64(-1).U8(0).U8(7).U32(9).Finish())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Shape 1: the GT2 request framing.
		d := NewDecoder(b)
		op := d.Str()
		body := d.Bytes()
		if d.Done() == nil {
			if !bytes.Equal(NewEncoder().Str(op).Bytes(body).Finish(), b) {
				t.Fatalf("str/bytes round trip diverged for %x", b)
			}
		}
		// Shape 2: the wrap-token framing.
		d = NewDecoder(b)
		seq := d.U64()
		ct := d.Bytes()
		if d.Done() == nil {
			if !bytes.Equal(NewEncoder().U64(seq).Bytes(ct).Finish(), b) {
				t.Fatalf("u64/bytes round trip diverged for %x", b)
			}
		}
		// Shape 3: scalar soup — must never panic regardless of input.
		d = NewDecoder(b)
		_ = d.U8()
		_ = d.Bool()
		_ = d.U32()
		_ = d.I64()
		_ = d.Count("items", 1024)
		_ = d.Str()
		_ = d.Err()
	})
}

// FuzzReadFrame feeds arbitrary streams to the frame reader: it must
// return an error or a frame that re-serializes to a prefix of the
// input, never panic or over-allocate past the cap.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrame(&good, []byte("token")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := ReadFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteFrame(&re, payload); err != nil {
			t.Fatalf("re-framing decoded payload: %v", err)
		}
		if !bytes.HasPrefix(b, re.Bytes()) {
			t.Fatalf("frame round trip diverged for %x", b)
		}
		// The remainder of the stream is untouched input, not consumed.
		_, _ = io.ReadAll(bytes.NewReader(b[re.Len():]))
	})
}
