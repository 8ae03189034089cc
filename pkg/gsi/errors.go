package gsi

import (
	"context"
	"errors"
	"strings"

	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/soap"
)

// The error taxonomy of the public API. Every operation on an
// Environment, Client, Server, or Session returns either nil or an
// *Error wrapping one of these sentinels plus the underlying cause, so
// callers branch with errors.Is and inspect detail with errors.As:
//
//	sess, err := client.Connect(ctx, addr)
//	switch {
//	case errors.Is(err, gsi.ErrContextClosed):      // ctx canceled / deadline hit
//	case errors.Is(err, gsi.ErrExpiredCredential):  // renew and retry
//	case errors.Is(err, gsi.ErrUntrustedIssuer):    // fix trust roots
//	case errors.Is(err, gsi.ErrTransport):          // network-level retry
//	}
var (
	// ErrExpiredCredential marks operations that failed because a
	// credential, certificate, or stored proxy was outside its validity
	// window.
	ErrExpiredCredential = errors.New("gsi: expired credential")
	// ErrUntrustedIssuer marks chains that do not terminate at a trusted
	// root (or were signed by a revoked certificate).
	ErrUntrustedIssuer = errors.New("gsi: untrusted issuer")
	// ErrAuthentication marks mutual-authentication failures other than
	// trust-root problems: bad transcript signatures, limited proxies
	// where full ones are required, identity mismatches.
	ErrAuthentication = errors.New("gsi: authentication failed")
	// ErrUnauthorized marks requests that authenticated but were denied by
	// policy (local, VO, or container authorization).
	ErrUnauthorized = errors.New("gsi: unauthorized")
	// ErrContextClosed marks operations aborted because the request
	// context was canceled or its deadline passed, or because the
	// underlying security context expired.
	ErrContextClosed = errors.New("gsi: context closed")
	// ErrTransport marks network- or framing-level failures: dial errors,
	// broken connections, SOAP faults that carry no security meaning.
	ErrTransport = errors.New("gsi: transport failure")
	// ErrNotFound marks lookups of absent entities (unknown service
	// handles, unknown jobs).
	ErrNotFound = errors.New("gsi: not found")
	// ErrPoolExhausted marks session-pool checkouts that could not
	// produce a session: the per-host concurrency cap was still reached
	// when the checkout deadline passed, or the pool was closed. A
	// checkout abandoned by explicit cancellation reports
	// ErrContextClosed instead.
	ErrPoolExhausted = errors.New("gsi: session pool exhausted")
)

// Error is the concrete error type returned at the pkg/gsi boundary. It
// carries the public operation that failed, the taxonomy sentinel the
// failure belongs to, and the underlying cause; errors.Is matches both
// the sentinel and the cause chain, and errors.As can recover *Error for
// the Op.
type Error struct {
	// Op is the public operation, e.g. "gsi.Client.Connect".
	Op string
	// Kind is the taxonomy sentinel (ErrTransport, ErrUnauthorized, …),
	// or nil when the failure fits no class.
	Kind error
	// Err is the underlying cause.
	Err error
}

// Error formats as "op: cause".
func (e *Error) Error() string { return e.Op + ": " + e.Err.Error() }

// Unwrap exposes both the taxonomy sentinel and the cause to errors.Is
// and errors.As.
func (e *Error) Unwrap() []error {
	if e.Kind != nil {
		return []error{e.Kind, e.Err}
	}
	return []error{e.Err}
}

// classify maps an internal error onto the public taxonomy. Order
// matters: context errors first (a canceled handshake often also looks
// like a transport error), then the specific security classes, then
// transport.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, gss.ErrContextExpired):
		return ErrContextClosed
	case errors.Is(err, gridcert.ErrExpired):
		return ErrExpiredCredential
	case errors.Is(err, gridcert.ErrUntrustedIssuer),
		errors.Is(err, gridcert.ErrRevoked):
		return ErrUntrustedIssuer
	case errors.Is(err, soap.ErrNoHandler):
		return ErrNotFound
	case errors.Is(err, gridcert.ErrLimitedProxy),
		errors.Is(err, gss.ErrAuthFailed),
		errors.Is(err, gss.ErrBadToken):
		return ErrAuthentication
	default:
		if f := (*soap.Fault)(nil); errors.As(err, &f) {
			return classifyFaultReason(f.Reason)
		}
		return ErrTransport
	}
}

// classifyFaultReason maps a SOAP fault's reason text onto the taxonomy.
// Faults cross the HTTP boundary as text, so the error identity of the
// server-side cause is gone; the container's stable phrasing ("denied",
// "authentication") is the contract instead. A chain the server refused
// for its issuer or a revocation reads as ErrUntrustedIssuer, as it
// does in process, although the handshake failure wrapping it says
// "authentication".
func classifyFaultReason(reason string) error {
	switch {
	case strings.Contains(reason, "denied"):
		return ErrUnauthorized
	case strings.Contains(reason, gridcert.ErrUntrustedIssuer.Error()),
		strings.Contains(reason, gridcert.ErrRevoked.Error()):
		return ErrUntrustedIssuer
	case strings.Contains(reason, "authentication"),
		strings.Contains(reason, "signature"),
		strings.Contains(reason, "limited proxy"):
		return ErrAuthentication
	case strings.Contains(reason, "no service"),
		strings.Contains(reason, "no handler"),
		strings.Contains(reason, "not found"),
		strings.Contains(reason, "no MJS"):
		return ErrNotFound
	default:
		return ErrTransport
	}
}

// opErr wraps an internal error for return from public operation op,
// classifying it onto the taxonomy. Errors already wrapped by a nested
// public operation pass through unchanged so the innermost Op (and its
// classification) is preserved.
func opErr(op string, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	return &Error{Op: op, Kind: classify(err), Err: err}
}
