package gsi

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Fuzz targets for the GT2 exchange framing, over the parsers the serve
// loop and the client's round trip run: whatever arrives off the wire,
// they return an error or views that account for every byte — never
// panic. Corpora are seeded from valid encodings, traced and untraced.

// gt2Request lays out a request as roundTrip assembles it; a valid sc
// rides as the trace-context trailer.
func gt2Request(op string, body []byte, sc trace.SpanContext) []byte {
	e := wire.NewEncoder().Str(op).Bytes(body)
	if sc.Valid() {
		e.Raw(sc.Encode(nil))
	}
	return e.Finish()
}

func FuzzGT2DecodeRequest(f *testing.F) {
	sc := trace.SpanContext{TraceID: trace.TraceID{1, 2, 3}, SpanID: trace.SpanID{4, 5}, Flags: trace.FlagSampled}
	f.Add(gt2Request("echo", []byte("payload"), trace.SpanContext{}))
	f.Add(gt2Request("echo", []byte("payload"), sc))
	f.Add(gt2Request("", nil, trace.SpanContext{}))
	f.Add(gt2Request(gt2PingOp, nil, sc))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		op, body, remote, err := gt2ParseRequest(b)
		if err != nil {
			return
		}
		// A successful parse is the (op, body) layout, then nothing or
		// exactly one trailer — the context it carries when valid.
		head := wire.NewEncoder().Str(string(op)).Bytes(body).Finish()
		if !bytes.HasPrefix(b, head) {
			t.Fatalf("parse of %x diverged from its layout", b)
		}
		switch tail := b[len(head):]; {
		case len(tail) != 0 && len(tail) != trace.EncodedLen:
			t.Fatalf("parse of %x accepted a %d-byte trailer", b, len(tail))
		case remote.Valid() && !bytes.Equal(remote.Encode(nil), tail):
			t.Fatalf("trailer %x decoded as %x", tail, remote.Encode(nil))
		}
	})
}

func FuzzGT2DecodeReply(f *testing.F) {
	reply := func(status byte, payload []byte) []byte {
		return wire.NewEncoder().U8(status).Bytes(payload).Finish()
	}
	f.Add(reply(gt2StatusOK, []byte("result")))
	f.Add(reply(gt2StatusUnauthorized, []byte("denied")))
	f.Add(reply(gt2StatusError, nil))
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		status, payload, err := gt2ParseReply(b)
		if err != nil {
			return
		}
		if !bytes.Equal(reply(status, payload), b) {
			t.Fatalf("round trip diverged for %x", b)
		}
	})
}
