package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/gridcrypto"
)

// testProtector implements Protector over a raw gridcrypto
// sealer/opener pair with the gss wrap-token layout, so the record
// layer can be exercised without a certificate world.
type testProtector struct {
	sealer *gridcrypto.Sealer
	opener *gridcrypto.Opener
}

var testAAD = []byte("record test")

func newTestPair(t testing.TB) (a, b *testProtector) {
	t.Helper()
	keyAB := bytes.Repeat([]byte{0xA5}, gridcrypto.AEADKeySize)
	keyBA := bytes.Repeat([]byte{0x5A}, gridcrypto.AEADKeySize)
	sAB, err := gridcrypto.NewSealer(keyAB)
	if err != nil {
		t.Fatal(err)
	}
	oAB, err := gridcrypto.NewOpener(keyAB)
	if err != nil {
		t.Fatal(err)
	}
	sBA, err := gridcrypto.NewSealer(keyBA)
	if err != nil {
		t.Fatal(err)
	}
	oBA, err := gridcrypto.NewOpener(keyBA)
	if err != nil {
		t.Fatal(err)
	}
	return &testProtector{sealer: sAB, opener: oBA}, &testProtector{sealer: sBA, opener: oAB}
}

// selfPair returns a protector whose seals its own opener accepts.
func selfPair(t testing.TB) *testProtector {
	t.Helper()
	key := bytes.Repeat([]byte{7}, gridcrypto.AEADKeySize)
	s, err := gridcrypto.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	o, err := gridcrypto.NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}
	return &testProtector{sealer: s, opener: o}
}

func (p *testProtector) WrapInto(dst, plaintext []byte) ([]byte, error) {
	off := len(dst)
	var hdr [12]byte
	dst = append(dst, hdr[:]...)
	seq, out, err := p.sealer.SealInto(dst, plaintext, testAAD)
	if err != nil {
		return nil, err
	}
	be := out[off:]
	be[0] = byte(seq >> 56)
	be[1] = byte(seq >> 48)
	be[2] = byte(seq >> 40)
	be[3] = byte(seq >> 32)
	be[4] = byte(seq >> 24)
	be[5] = byte(seq >> 16)
	be[6] = byte(seq >> 8)
	be[7] = byte(seq)
	n := len(out) - off - 12
	be[8] = byte(n >> 24)
	be[9] = byte(n >> 16)
	be[10] = byte(n >> 8)
	be[11] = byte(n)
	return out, nil
}

func (p *testProtector) UnwrapInPlace(token []byte) ([]byte, error) {
	if len(token) < 12 {
		return nil, errors.New("short token")
	}
	seq := uint64(token[0])<<56 | uint64(token[1])<<48 | uint64(token[2])<<40 | uint64(token[3])<<32 |
		uint64(token[4])<<24 | uint64(token[5])<<16 | uint64(token[6])<<8 | uint64(token[7])
	n := int(token[8])<<24 | int(token[9])<<16 | int(token[10])<<8 | int(token[11])
	if n != len(token)-12 {
		return nil, errors.New("bad token length")
	}
	return p.opener.OpenInto(token[12:12], seq, token[12:], testAAD)
}

func (p *testProtector) WrapPrefix() int   { return 12 }
func (p *testProtector) WrapOverhead() int { return 12 + gridcrypto.SealOverhead }

// The chunk token, as gss lays it out: seq || length || header (clear)
// || ciphertext, the length and header bound as associated data.

func (p *testProtector) WrapChunkInto(dst, hdr, payload []byte) ([]byte, error) {
	off := len(dst)
	dst = testChunkPrefix(dst, hdr, len(payload))
	seq, out, err := p.sealer.SealInto(dst, payload, dst[off+8:])
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(out[off:], seq)
	return out, nil
}

func (p *testProtector) UnwrapChunkInto(dst, token []byte, hdrLen int) (hdr, out []byte, err error) {
	if len(token) < 12+hdrLen || int(binary.BigEndian.Uint32(token[8:])) != len(token)-12 {
		return nil, nil, errors.New("bad chunk token")
	}
	out, err = p.opener.OpenInto(dst, binary.BigEndian.Uint64(token), token[12+hdrLen:], token[8:12+hdrLen])
	return token[12 : 12+hdrLen], out, err
}

func testChunkPrefix(dst, hdr []byte, n int) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(hdr)+n+gridcrypto.SealOverhead))
	return append(dst, hdr...)
}

// Explicit-sequence half: testProtector is a PipelinedProtector too.

func (p *testProtector) ReserveWrap() (uint64, error) { return p.sealer.Reserve() }

func (p *testProtector) WrapChunkAt(seq uint64, nonce *[12]byte, dst, hdr, payload []byte) []byte {
	off := len(dst)
	dst = testChunkPrefix(dst, hdr, len(payload))
	out := p.sealer.SealAt(nonce, seq, dst, payload, dst[off+8:])
	binary.BigEndian.PutUint64(out[off:], seq)
	return out
}

// chunkRec is a chunk record as a chunk token opens in place: header,
// then payload.
func chunkRec(typ ChunkType, seq uint64, payload []byte) []byte {
	rec := make([]byte, ChunkHeader, ChunkHeader+len(payload))
	putChunkHeader(rec, typ, seq)
	return append(rec, payload...)
}

func TestPoolClasses(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 64 << 10, DefaultChunkSize + 41, 1 << 20, 4 << 20} {
		b := Get(n)
		if len(b.B) < n {
			t.Fatalf("Get(%d) returned %d bytes", n, len(b.B))
		}
		b.Free()
	}
	huge := Get(5 << 20)
	if huge.class != -1 {
		t.Fatal("over-class buffer claims to be pooled")
	}
	huge.Free() // must be a no-op
	var nilBuf *Buf
	nilBuf.Free() // no-op on nil
}

func TestWriteAssembledReadRoundTrip(t *testing.T) {
	p, q := newTestPair(t)
	var wireBuf bytes.Buffer
	hr := Headroom(p)
	for i, msg := range []string{"", "short", string(bytes.Repeat([]byte{0xEE}, 100_000))} {
		buf := Get(hr + len(msg) + p.WrapOverhead())
		frame := append(buf.B[:hr], msg...)
		if err := WriteAssembled(&wireBuf, p, frame); err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		buf.Free()
		pt, rbuf, err := Read(&wireBuf, q, 0, 0)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if string(pt) != msg {
			t.Fatalf("msg %d corrupted: %d bytes", i, len(pt))
		}
		rbuf.Free()
	}
}

func TestSealAndWriteRoundTrip(t *testing.T) {
	p, q := newTestPair(t)
	var wireBuf bytes.Buffer
	msg := bytes.Repeat([]byte("external plaintext "), 1000)
	if err := SealAndWrite(&wireBuf, p, msg); err != nil {
		t.Fatal(err)
	}
	pt, buf, err := Read(&wireBuf, q, 0, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if !bytes.Equal(pt, msg) {
		t.Fatal("round trip corrupted")
	}
}

// An under-sized assembly buffer still produces a correct frame (the
// slow two-write path).
func TestWriteAssembledUndersized(t *testing.T) {
	p, q := newTestPair(t)
	var wireBuf bytes.Buffer
	hr := Headroom(p)
	msg := []byte("grown past capacity")
	frame := make([]byte, hr+len(msg)) // no spare tail for the tag
	copy(frame[hr:], msg)
	if err := WriteAssembled(&wireBuf, p, frame); err != nil {
		t.Fatal(err)
	}
	pt, buf, err := Read(&wireBuf, q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if !bytes.Equal(pt, msg) {
		t.Fatal("undersized frame corrupted")
	}
}

// A hostile length prefix must not force an up-front jumbo allocation:
// Read grows through the size classes only as bytes actually arrive.
func TestReadTruncatedJumboBounded(t *testing.T) {
	p := selfPair(t)
	// Announce MaxRecord, deliver 100 bytes.
	input := append([]byte{0x01, 0x00, 0x00, 0x00}, make([]byte, 100)...)
	_, _, err := Read(bytes.NewReader(input), p, 0, 0)
	if err == nil {
		t.Fatal("truncated jumbo record accepted")
	}
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("in-cap announcement misclassified")
	}
	// Over-cap announcements fail before any payload read.
	over := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	_, _, err = Read(bytes.NewReader(over), p, 0, 0)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("over-cap record: %v", err)
	}
	// A per-call cap below the default bites too.
	small := append([]byte{0x00, 0x00, 0x10, 0x00}, make([]byte, 64)...)
	_, _, err = Read(bytes.NewReader(small), p, 1024, 0)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("capped record: %v", err)
	}
}

func TestReadTamperRejected(t *testing.T) {
	p, q := newTestPair(t)
	var wireBuf bytes.Buffer
	if err := SealAndWrite(&wireBuf, p, []byte("integrity matters")); err != nil {
		t.Fatal(err)
	}
	raw := wireBuf.Bytes()
	raw[len(raw)-1] ^= 0x80
	if _, _, err := Read(bytes.NewReader(raw), q, 0, 0); err == nil {
		t.Fatal("tampered record accepted")
	}
}

func TestChunkProtocol(t *testing.T) {
	var s ChunkSender
	var a Assembler
	send := func(typ ChunkType, payload string) []byte {
		t.Helper()
		seq, err := s.Next(typ, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		return chunkRec(typ, seq, []byte(payload))
	}

	rec := send(ChunkData, "part one ")
	if pl, fin, err := a.Accept(rec); err != nil || fin || string(pl) != "part one " {
		t.Fatalf("data chunk: %q %v %v", pl, fin, err)
	}
	rec = send(ChunkData, "part two")
	if pl, _, err := a.Accept(rec); err != nil || string(pl) != "part two" {
		t.Fatalf("data chunk 2: %q %v", pl, err)
	}
	if _, done, err := a.Accept(send(ChunkFIN, "")); err != nil || !done {
		t.Fatalf("FIN: %v %v", done, err)
	}
	if !a.fin {
		t.Fatal("assembler not done after FIN")
	}
	// Termination is single-shot on both halves.
	if _, err := s.Next(ChunkData, 4); !errors.Is(err, ErrStreamTerminated) {
		t.Fatalf("send after FIN: %v", err)
	}
	if _, _, err := a.Accept(rec); !errors.Is(err, ErrStreamTerminated) {
		t.Fatalf("accept after FIN: %v", err)
	}
	var big ChunkSender
	if _, err := big.Next(ChunkData, MaxChunkPayload+1); err == nil {
		t.Fatal("oversized chunk stamped")
	}
}

func TestChunkSequenceViolations(t *testing.T) {
	mk := chunkRec
	cases := []struct {
		name string
		recs [][]byte
	}{
		{"replay", [][]byte{mk(ChunkData, 0, []byte("a")), mk(ChunkData, 0, []byte("a"))}},
		{"gap", [][]byte{mk(ChunkData, 0, []byte("a")), mk(ChunkData, 2, []byte("c"))}},
		{"reorder", [][]byte{mk(ChunkData, 1, []byte("b"))}},
		{"truncated", [][]byte{[]byte{1, 2, 3}}},
		{"unknown type", [][]byte{mk(9, 0, nil)}},
		{"fin payload", [][]byte{mk(ChunkFIN, 0, []byte("x"))}},
		{"oversized", [][]byte{mk(ChunkData, 0, make([]byte, MaxChunkPayload+1))}},
	}
	for _, tc := range cases {
		var a Assembler
		var lastErr error
		for _, r := range tc.recs {
			_, _, lastErr = a.Accept(r)
		}
		if lastErr == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		// Poisoned: subsequent accepts keep failing.
		if _, _, err := a.Accept(mk(ChunkData, a.next, nil)); err == nil {
			t.Fatalf("%s: assembler recovered after violation", tc.name)
		}
	}
}

func TestErrorChunkSurfacesAsPeerError(t *testing.T) {
	var s ChunkSender
	var a Assembler
	seq, _ := s.Next(ChunkData, 7)
	if _, _, err := a.Accept(chunkRec(ChunkData, seq, []byte("partial"))); err != nil {
		t.Fatal(err)
	}
	seq, err := s.Next(ChunkError, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = a.Accept(chunkRec(ChunkError, seq, []byte("disk on fire")))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Msg != "disk on fire" {
		t.Fatalf("error chunk: %v", err)
	}
}

// Regression: an ERROR chunk whose sequence number is ahead of the
// assembler's cursor (as happens when the abort overtakes DATA chunks
// on out-of-order carriage) must surface the peer's abort reason, not a
// bogus "lost, replayed, or reordered chunk" sequence error.
func TestErrorChunkAheadOfSequenceSurfacesPeerError(t *testing.T) {
	var a Assembler
	// Sender shipped DATA 0,1,2 then ERROR at seq 3; the receiver sees
	// the ERROR first.
	abort := chunkRec(ChunkError, 3, []byte("quota exceeded"))
	_, _, err := a.Accept(abort)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("racing ERROR chunk misclassified: %v", err)
	}
	if pe.Msg != "quota exceeded" {
		t.Fatalf("abort reason corrupted: %q", pe.Msg)
	}
	// The stream stays poisoned with the same peer error.
	if _, _, err := a.Accept(chunkRec(ChunkData, 0, []byte("x"))); !errors.As(err, &pe) {
		t.Fatalf("poisoning lost the peer error: %v", err)
	}
}

// Regression: the ERROR chunk's sender used to cut the abort message at
// a raw byte offset, splitting a multi-byte UTF-8 rune so the receiver
// got an invalid string. The cap must land on a rune boundary, on both the
// send-side truncation and the assembler's mirror cap.
func TestErrorMessageTruncatesOnRuneBoundary(t *testing.T) {
	// "на" etc: 2-byte runes; build a message whose MaxErrorPayload'th
	// byte lands mid-rune.
	// 2047 two-byte runes (4094 bytes) + "x" (1) puts the next "д" at
	// bytes 4095-4096: the MaxErrorPayload cut at 4096 lands mid-rune.
	msg := strings.Repeat("д", MaxErrorPayload/2-1) + "xдд"
	if n := len(msg); n != MaxErrorPayload+3 {
		t.Fatalf("test construction: %d bytes", n)
	}
	p, q := newTestPair(t)
	var wireBuf bytes.Buffer
	if err := WriteChunk(&wireBuf, p, ChunkError, 0, []byte(msg)); err != nil {
		t.Fatal(err)
	}
	rec, _, buf, err := ReadChunk(&wireBuf, q, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	_, _, body, err := ParseChunk(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > MaxErrorPayload {
		t.Fatalf("cap not enforced: %d bytes", len(body))
	}
	if !utf8.Valid(body) {
		t.Fatalf("send-side truncation split a rune: % x", body[len(body)-4:])
	}
	// Mirror cap on the assembler: a hostile over-long ERROR record is
	// capped without manufacturing invalid UTF-8 from a valid message.
	var a Assembler
	hostile := chunkRec(ChunkError, 0, []byte(msg))
	_, _, err = a.Accept(hostile)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatal(err)
	}
	if len(pe.Msg) > MaxErrorPayload || !utf8.ValidString(pe.Msg) {
		t.Fatalf("assembler cap split a rune: %d bytes", len(pe.Msg))
	}
}

// Steady-state record I/O through the pool performs no per-record
// allocation (beyond the caller-owned result copy, which this loop
// avoids by consuming views).
func TestSteadyStateRecordAllocs(t *testing.T) {
	p, q := newTestPair(t)
	var wireBuf bytes.Buffer
	msg := bytes.Repeat([]byte{0x42}, 4096)
	hr := Headroom(p)
	// Warm the pool.
	round := func() {
		buf := Get(hr + len(msg) + p.WrapOverhead())
		frame := append(buf.B[:hr], msg...)
		if err := WriteAssembled(&wireBuf, p, frame); err != nil {
			t.Fatal(err)
		}
		buf.Free()
		pt, rbuf, err := Read(&wireBuf, q, 0, len(msg)+64)
		if err != nil || len(pt) != len(msg) {
			t.Fatalf("%v (%d bytes)", err, len(pt))
		}
		rbuf.Free()
		wireBuf.Reset()
	}
	round()
	allocs := testing.AllocsPerRun(200, round)
	if allocs > 1 { // bytes.Buffer internals may rarely grow; the record path itself is 0
		t.Fatalf("steady-state record round trip allocates %.1f/op", allocs)
	}
}

func TestReadEOF(t *testing.T) {
	p := selfPair(t)
	if _, _, err := Read(bytes.NewReader(nil), p, 0, 0); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}
