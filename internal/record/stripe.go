package record

import (
	"errors"
	"fmt"
)

// Striped reassembly: one logical stream fanned across K independent
// record connections (GridFTP parallel striping). Each DATA chunk
// carries its *global* stream sequence number, stamped by the sender
// before fan-out, so per-connection record protection still covers the
// ordering info while chunks from different stripes interleave
// arbitrarily at the receiver. The strictly sequential Assembler is
// correct per connection but fatal across them — StripeAssembler is
// its windowed sibling.
//
// Termination invariant (the FIN trailer): every stripe ends with a
// FIN record whose sequence field carries the transfer's *total* DATA
// chunk count (the same convention as the single-stream path, where
// FIN.seq equals the number of chunks sent). The stream completes only
// when (a) every chunk in [0, total) has been delivered and (b) all K
// stripes have FINed with the *same* total. A stripe that dies before
// its FIN therefore always surfaces as an error — a dropped stripe can
// never silently truncate a file, because the surviving FINs pin the
// expected chunk population.

// DefaultStripeWindow bounds the reassembly look-ahead per stripe
// direction: how far (in chunks) the fastest stripe may run ahead of
// the slowest before the receiver calls foul. Window × chunk size
// bounds reassembly memory: 64 × 256 KiB = 16 MiB.
const DefaultStripeWindow = 64

// ErrStripeWindowExceeded reports a chunk so far ahead of the delivery
// cursor that buffering it would exceed the reassembly window — either
// a stalled stripe or a peer ignoring the window contract.
var ErrStripeWindowExceeded = errors.New("record: stripe reassembly window exceeded")

type stripeChunk struct {
	payload []byte
	buf     *Buf
}

// StripeAssembler reassembles one logical stream from K stripes. Not
// safe for concurrent use — the striped reader serializes Accept/Pop
// under its own lock (it must coordinate K reader goroutines anyway).
type StripeAssembler struct {
	stripes int
	window  int

	next     uint64 // next sequence number to deliver
	total    uint64 // FIN-declared DATA chunk count
	totalSet bool
	fins     int
	buffered map[uint64]stripeChunk
	err      error
}

// NewStripeAssembler builds an assembler for the given stripe count and
// look-ahead window (0 = DefaultStripeWindow).
func NewStripeAssembler(stripes, window int) *StripeAssembler {
	if window <= 0 {
		window = DefaultStripeWindow
	}
	return &StripeAssembler{
		stripes:  stripes,
		window:   window,
		buffered: make(map[uint64]stripeChunk),
	}
}

// Accept consumes one chunk record arriving on any stripe. buf is the
// pooled buffer backing rec; when a DATA chunk is accepted its
// ownership transfers to the assembler (returned later by Pop, or
// freed by Release). On error, and for FIN records (which carry no
// payload worth retaining), ownership stays with the caller.
// Violations poison the assembler.
func (a *StripeAssembler) Accept(rec []byte, buf *Buf) error {
	if a.err != nil {
		return a.err
	}
	if a.Done() {
		a.err = ErrStreamTerminated
		return a.err
	}
	typ, seq, body, err := ParseChunk(rec)
	if err != nil {
		a.err = err
		return err
	}
	switch typ {
	case ChunkError:
		// Terminal abort: classify before any ordering/window checks —
		// on striped carriage it legitimately overtakes DATA chunks.
		a.err = &PeerError{Msg: string(truncateOnRune(body, MaxErrorPayload))}
		return a.err
	case ChunkData:
		if len(body) > MaxChunkPayload {
			a.err = fmt.Errorf("record: chunk payload %d exceeds %d", len(body), MaxChunkPayload)
			return a.err
		}
		if seq < a.next {
			a.err = fmt.Errorf("record: stripe chunk %d replayed (delivery cursor %d)", seq, a.next)
			return a.err
		}
		if a.totalSet && seq >= a.total {
			a.err = fmt.Errorf("record: stripe chunk %d beyond FIN-declared total %d", seq, a.total)
			return a.err
		}
		if seq >= a.next+uint64(a.window) {
			a.err = fmt.Errorf("%w: chunk %d, cursor %d, window %d", ErrStripeWindowExceeded, seq, a.next, a.window)
			return a.err
		}
		if _, dup := a.buffered[seq]; dup {
			a.err = fmt.Errorf("record: stripe chunk %d duplicated", seq)
			return a.err
		}
		a.buffered[seq] = stripeChunk{payload: body, buf: buf}
		return nil
	case ChunkFIN:
		if len(body) != 0 {
			a.err = errors.New("record: FIN record carries payload")
			return a.err
		}
		if a.totalSet && seq != a.total {
			a.err = fmt.Errorf("record: stripe FIN totals disagree: %d then %d", a.total, seq)
			return a.err
		}
		if !a.totalSet {
			// A FIN can arrive before the chunks it accounts for, but a
			// total below what we've already seen is a lie.
			for s := range a.buffered {
				if s >= seq {
					a.err = fmt.Errorf("record: stripe chunk %d beyond FIN-declared total %d", s, seq)
					return a.err
				}
			}
			if a.next > seq {
				a.err = fmt.Errorf("record: delivered %d chunks, FIN declares %d", a.next, seq)
				return a.err
			}
			a.total = seq
			a.totalSet = true
		}
		a.fins++
		if a.fins > a.stripes {
			a.err = fmt.Errorf("record: %d FINs on %d stripes", a.fins, a.stripes)
			return a.err
		}
		return nil
	default:
		a.err = fmt.Errorf("record: unknown chunk type %d", typ)
		return a.err
	}
}

// Pop returns the next in-order payload, transferring its backing Buf
// to the caller (Free after consuming). ok is false when the chunk at
// the delivery cursor has not arrived yet (or the stream is done or
// poisoned).
func (a *StripeAssembler) Pop() (payload []byte, buf *Buf, ok bool) {
	if a.err != nil {
		return nil, nil, false
	}
	c, found := a.buffered[a.next]
	if !found {
		return nil, nil, false
	}
	delete(a.buffered, a.next)
	a.next++
	return c.payload, c.buf, true
}

// Fits reports whether a DATA chunk with the given sequence number is
// within the current reassembly window (or behind the cursor, where
// Accept produces the replay error). A cooperating receiver parks the
// stripe until Fits holds instead of feeding Accept a violation — the
// window is flow control for a receiver that coordinates its stripes,
// and a protocol offense only for a peer that cannot be paused.
func (a *StripeAssembler) Fits(seq uint64) bool {
	return seq < a.next+uint64(a.window)
}

// Done reports clean completion: every chunk in [0, total) delivered
// and all stripes FINed with an agreeing total.
func (a *StripeAssembler) Done() bool {
	return a.err == nil && a.totalSet && a.next == a.total &&
		len(a.buffered) == 0 && a.fins == a.stripes
}

// Release frees every buffered chunk (teardown after an error).
func (a *StripeAssembler) Release() {
	for s, c := range a.buffered {
		c.buf.Free()
		delete(a.buffered, s)
	}
}
