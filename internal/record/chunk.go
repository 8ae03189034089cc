package record

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Chunked stream mode: an unbounded byte stream crosses the record
// layer as a sequence of chunk records — DATA chunks carrying up to
// MaxChunkPayload bytes each, terminated by exactly one FIN record (or
// an ERROR record when the sender aborts mid-stream). Every chunk
// carries its own stream sequence number, bound under the record
// protection, so a stream reassembled from records can never silently
// lose, duplicate, or reorder a chunk even across carriers that do not
// themselves order records (the GT3 per-call carriage).

// ChunkType tags a chunk record.
type ChunkType uint8

const (
	// ChunkData carries stream payload bytes.
	ChunkData ChunkType = 1
	// ChunkFIN terminates a stream cleanly. Its payload is empty.
	ChunkFIN ChunkType = 2
	// ChunkError aborts a stream: the sender hit a mid-stream failure
	// and the bytes so far must be discarded. Its payload is the error
	// message.
	ChunkError ChunkType = 3
)

// ChunkHeader is the fixed per-chunk header: type (1) plus stream
// sequence number (8).
const ChunkHeader = 1 + 8

// DefaultChunkSize is the stream transfer granularity: large enough to
// amortize per-record cost, small enough to stay cache-resident through
// the seal/copy/open pipeline.
const DefaultChunkSize = 256 << 10

// MaxChunkPayload caps a single chunk's payload; oversized chunks are
// rejected at reassembly before any copying.
const MaxChunkPayload = DefaultChunkSize

// MaxErrorPayload bounds the message an ERROR chunk may carry.
const MaxErrorPayload = 4 << 10

// truncateOnRune caps b at max bytes without splitting a multi-byte
// UTF-8 rune: if the cut would land mid-sequence, it backs up to the
// preceding rune boundary so the receiver always sees valid UTF-8.
func truncateOnRune(b []byte, max int) []byte {
	if len(b) <= max {
		return b
	}
	cut := max
	for cut > 0 && max-cut < 3 && b[cut]&0xC0 == 0x80 {
		cut--
	}
	return b[:cut]
}

// AppendChunk appends one chunk record (header plus payload) to dst.
func AppendChunk(dst []byte, typ ChunkType, seq uint64, payload []byte) []byte {
	var hdr [ChunkHeader]byte
	hdr[0] = byte(typ)
	binary.BigEndian.PutUint64(hdr[1:], seq)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ParseChunk splits a chunk record into its parts; payload is a view
// into rec.
func ParseChunk(rec []byte) (typ ChunkType, seq uint64, payload []byte, err error) {
	if len(rec) < ChunkHeader {
		return 0, 0, nil, errors.New("record: truncated chunk header")
	}
	typ = ChunkType(rec[0])
	seq = binary.BigEndian.Uint64(rec[1:])
	return typ, seq, rec[ChunkHeader:], nil
}

// PeerError is the reassembled form of an ERROR chunk: the peer aborted
// the stream mid-flight and reported why.
type PeerError struct{ Msg string }

func (e *PeerError) Error() string { return "record: peer aborted stream: " + e.Msg }

// ErrStreamTerminated reports chunk traffic on a stream that already
// saw its terminal record.
var ErrStreamTerminated = errors.New("record: stream already terminated")

// ChunkSender tracks the send half of one stream: it stamps strictly
// increasing sequence numbers and enforces single termination.
type ChunkSender struct {
	seq  uint64
	done bool
}

// AppendData appends a DATA chunk for payload to dst.
func (s *ChunkSender) AppendData(dst, payload []byte) ([]byte, error) {
	if s.done {
		return dst, ErrStreamTerminated
	}
	if len(payload) > MaxChunkPayload {
		return dst, fmt.Errorf("record: chunk payload %d exceeds %d", len(payload), MaxChunkPayload)
	}
	out := AppendChunk(dst, ChunkData, s.seq, payload)
	s.seq++
	return out, nil
}

// AppendFIN appends the terminal FIN record to dst.
func (s *ChunkSender) AppendFIN(dst []byte) ([]byte, error) {
	if s.done {
		return dst, ErrStreamTerminated
	}
	s.done = true
	return AppendChunk(dst, ChunkFIN, s.seq, nil), nil
}

// AppendError appends a terminal ERROR record carrying msg to dst.
func (s *ChunkSender) AppendError(dst []byte, msg string) ([]byte, error) {
	if s.done {
		return dst, ErrStreamTerminated
	}
	s.done = true
	return AppendChunk(dst, ChunkError, s.seq, truncateOnRune([]byte(msg), MaxErrorPayload)), nil
}

// Terminated reports whether the sender has sent its terminal record.
func (s *ChunkSender) Terminated() bool { return s.done }

// AppendErrorChunk appends an ERROR record carrying msg (rune-safely
// truncated to MaxErrorPayload) under an explicit sequence number — the
// striped sender's stateless sibling of AppendError, where the global
// sequence counter lives outside any one ChunkSender.
func AppendErrorChunk(dst []byte, seq uint64, msg string) []byte {
	return AppendChunk(dst, ChunkError, seq, truncateOnRune([]byte(msg), MaxErrorPayload))
}

// Assembler validates the receive half of one stream: chunks must
// arrive with strictly sequential sequence numbers, respect the payload
// caps, and terminate exactly once. Any violation poisons the stream —
// every later Accept returns the same error.
type Assembler struct {
	next uint64
	fin  bool
	err  error
}

// Accept consumes one chunk record. For DATA chunks it returns the
// payload view (aliasing rec — consume before releasing the record
// buffer); for the FIN record it returns fin=true; an ERROR record
// surfaces as a *PeerError. Truncation, sequence gaps or replays,
// duplicate termination, oversized payloads, and unknown chunk types
// all fail.
func (a *Assembler) Accept(rec []byte) (payload []byte, fin bool, err error) {
	if a.err != nil {
		return nil, false, a.err
	}
	if a.fin {
		a.err = ErrStreamTerminated
		return nil, false, a.err
	}
	typ, seq, body, err := ParseChunk(rec)
	if err != nil {
		a.err = err
		return nil, false, err
	}
	// An ERROR record is the peer's abort reason: on out-of-order
	// carriage (striping, GT3 per-call records) it can legitimately
	// overtake DATA chunks, so classify it before enforcing ordering —
	// otherwise the caller sees a bogus sequence-gap error instead of
	// why the peer actually aborted.
	if typ == ChunkError {
		a.err = &PeerError{Msg: string(truncateOnRune(body, MaxErrorPayload))}
		return nil, false, a.err
	}
	if seq != a.next {
		a.err = fmt.Errorf("record: chunk sequence %d, want %d (lost, replayed, or reordered chunk)", seq, a.next)
		return nil, false, a.err
	}
	switch typ {
	case ChunkData:
		if len(body) > MaxChunkPayload {
			a.err = fmt.Errorf("record: chunk payload %d exceeds %d", len(body), MaxChunkPayload)
			return nil, false, a.err
		}
		a.next++
		return body, false, nil
	case ChunkFIN:
		if len(body) != 0 {
			a.err = errors.New("record: FIN record carries payload")
			return nil, false, a.err
		}
		a.next++
		a.fin = true
		return nil, true, nil
	default:
		a.err = fmt.Errorf("record: unknown chunk type %d", typ)
		return nil, false, a.err
	}
}
