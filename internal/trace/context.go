// Context plumbing and wire anchors: how a span travels down a call
// stack (context.Context) and across process boundaries (a trailing
// binary field on GT2 frames, a SOAP header on GT3). Living here —
// not in the facade — lets the OGSA container and the transports
// consume trace contexts without import cycles.
package trace

import "context"

// SOAPHeader is the envelope header name carrying the encoded
// SpanContext on GT3 calls. The header is intentionally outside the
// signed set (Canonical covers only named headers), so tracing rides
// along without perturbing WS-Security signatures.
const SOAPHeader = "gsi:Trace"

type spanCtxKey struct{}
type remoteCtxKey struct{}

// ContextWithSpan returns ctx carrying sp. Callers only wrap when a
// span exists — the disabled-tracing path never allocates a context.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ContextWithRemote returns ctx carrying a SpanContext received over
// the wire — used where the receive site (the OGSA router) is
// separated from the span-starting site (the service handler) by
// layers that only pass a context.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// RemoteFromContext returns the wire-received SpanContext carried by
// ctx (zero when absent).
func RemoteFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(remoteCtxKey{}).(SpanContext)
	return sc
}
