package gridftp

import (
	"repro/internal/trace"
)

// End-to-end tracing for the data-movement service. The control
// protocol's command payloads have fixed legal lengths per verb, so the
// trace context crosses the wire as a trailing trace.EncodedLen-byte
// suffix discriminated purely by length: a payload exactly EncodedLen
// longer than a legal untraced form carries one. Untraced peers on
// either side keep interoperating — an untraced server strips (and
// ignores) the suffix, an untraced client simply never appends one.

// SetTracer attaches a tracer to the server: every GET/PUT — plain or
// striped — gets a server-side span continuing the client's trace, and
// active transfers register in the tracer's transfer registry for the
// admin plane. Call before traffic arrives; a nil tracer (the default)
// disables tracing.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer = t }

// SetTracer attaches a tracer to the client: GET/PUT operations become
// root spans whose context crosses on the command (and per-stripe on
// each JOIN), and in-flight transfers register in the tracer's
// transfer registry.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer = t }

// xferTrace is the tracing state of one in-flight transfer, on either
// side: its span, the per-stripe lane spans under it (client side of a
// striped transfer), and its entry in the active-transfer registry. All
// three are nil when untraced.
type xferTrace struct {
	sp    *trace.Span
	lanes []*trace.Span
	xfer  *trace.Transfer
}

// add accounts n transferred bytes.
func (t *xferTrace) add(n int) {
	if n > 0 {
		t.sp.AddBytes(int64(n))
		t.xfer.Add(int64(n))
	}
}

// end closes lanes, span and registration with the transfer's outcome.
// Only the first call counts.
func (t *xferTrace) end(err error) {
	for _, lane := range t.lanes {
		lane.End()
	}
	t.sp.SetError(err)
	t.sp.End()
	t.xfer.End()
	*t = xferTrace{}
}

// traceSuffix appends sp's wire context to a command payload; untraced
// (nil span) payloads pass through untouched.
func traceSuffix(sp *trace.Span, payload []byte) []byte {
	if sp == nil {
		return payload
	}
	return sp.Context().Encode(payload)
}

// Legal untraced payload lengths per verb; a trailing trace context is
// present exactly when the payload is trace.EncodedLen longer than one
// of these (the sets {0,5}, {0,8,13}, {20} and their +25 forms are
// disjoint, so the discrimination is unambiguous).
var (
	tracedGetLens  = []int{0, 5}
	tracedPutLens  = []int{0, 8, 13}
	tracedJoinLens = []int{stripeTokenLen + 4}
)

// splitTrace strips and decodes a trailing trace context from an
// inbound command payload. It runs regardless of whether this server
// traces, so traced clients interoperate with untraced servers.
func splitTrace(verb string, payload []byte) ([]byte, trace.SpanContext) {
	var bases []int
	switch verb {
	case opGetS:
		bases = tracedGetLens
	case opPutS:
		bases = tracedPutLens
	case opJoin:
		bases = tracedJoinLens
	default:
		return payload, trace.SpanContext{}
	}
	n := len(payload) - trace.EncodedLen
	for _, b := range bases {
		if n == b {
			if sc, ok := trace.DecodeSpanContext(payload[n:]); ok {
				return payload[:n], sc
			}
			return payload, trace.SpanContext{}
		}
	}
	return payload, trace.SpanContext{}
}
