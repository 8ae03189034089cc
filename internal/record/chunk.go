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
// carries its own stream sequence number in a chunk header that travels
// in the clear, bound under the record protection as associated data
// (WriteChunk, ReadChunk), so a stream reassembled from records can
// never silently lose, duplicate, or reorder a chunk even across
// carriers that do not themselves order records.

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

// putChunkHeader writes a chunk header into hdr.
func putChunkHeader(hdr []byte, typ ChunkType, seq uint64) {
	hdr[0] = byte(typ)
	binary.BigEndian.PutUint64(hdr[1:ChunkHeader], seq)
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

// Next claims the stream sequence number of the next chunk, of type typ
// carrying n payload bytes; a FIN or ERROR chunk terminates the stream.
// A FIN's sequence number is the count of DATA chunks before it.
func (s *ChunkSender) Next(typ ChunkType, n int) (uint64, error) {
	if s.done {
		return 0, ErrStreamTerminated
	}
	if typ == ChunkData && n > MaxChunkPayload {
		return 0, fmt.Errorf("record: chunk payload %d exceeds %d", n, MaxChunkPayload)
	}
	seq := s.seq
	if typ == ChunkData {
		s.seq++
	} else {
		s.done = true
	}
	return seq, nil
}

// Terminated reports whether the sender has sent its terminal record.
func (s *ChunkSender) Terminated() bool { return s.done }

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
