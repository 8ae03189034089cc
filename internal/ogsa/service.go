// Package ogsa implements the Grid-service framework of OGSA as the
// paper uses it (§4): stateful services with service data elements
// (SDEs), explicit destruction, and a container ("hosting environment")
// that pulls security handling
// out of the application — authentication, authorization and auditing
// run in the container's handler pipeline, and the service sees only
// authorized, identified calls (§4.2, §4.5).
package ogsa

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/gridcert"
	"repro/internal/trace"
)

// Identity is the authenticated caller presented to services.
type Identity struct {
	// Anonymous marks unauthenticated callers (allowed only for
	// operations the container exempts, like policy retrieval).
	Anonymous bool
	// Name is the caller's grid identity.
	Name gridcert.Name
	// Limited reports a limited-proxy authentication.
	Limited bool
	// LocalAccount is the local account the container's chain-aware
	// authorizer mapped the caller to (empty when no gridmap applies).
	LocalAccount string
}

// Call is one inbound, already-authenticated and authorized invocation.
type Call struct {
	// Service is the target service handle.
	Service string
	// Op is the operation name within the service's port type.
	Op string
	// Body is the request payload.
	Body []byte
	// Caller is the authenticated identity established by the container.
	Caller Identity
	// Conversation reports that the call arrived over an established
	// secure conversation (WS-SecureConversation), as opposed to a
	// stateless per-message signature. Services that hand out live
	// key material — the delegation port type — require it.
	Conversation bool
	// Trace is the caller's trace context, lifted off the envelope's
	// trace header by the router (zero when the call is untraced).
	// Services that start spans parent them under it so client and
	// server spans share one trace id.
	Trace trace.SpanContext
}

// Service is a Grid service: a named set of operations plus the standard
// GridService port type behaviours (service data, lifetime).
type Service interface {
	// Invoke handles one operation call.
	Invoke(call *Call) ([]byte, error)
}

// ServiceData is the service data element (SDE) set of one service
// instance: queryable named values (§4: "Grid services can define, as
// part of their interface, service data elements that other entities can
// query").
type ServiceData struct {
	mu     sync.RWMutex
	values map[string][]byte
}

// NewServiceData creates an empty SDE set.
func NewServiceData() *ServiceData {
	return &ServiceData{values: make(map[string][]byte)}
}

// Set updates an element.
func (sd *ServiceData) Set(name string, value []byte) {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	sd.values[name] = append([]byte(nil), value...)
}

// Query returns the current value of an element.
func (sd *ServiceData) Query(name string) ([]byte, bool) {
	sd.mu.RLock()
	defer sd.mu.RUnlock()
	v, ok := sd.values[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Base provides the standard GridService port type: service data and
// destruction. Concrete services embed it.
type Base struct {
	Data *ServiceData

	mu        sync.Mutex
	destroyed bool
}

// NewBase creates the standard behaviour bundle.
func NewBase() *Base {
	return &Base{Data: NewServiceData()}
}

// Destroy marks the service destroyed.
func (b *Base) Destroy() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.destroyed = true
}

// Destroyed reports destruction.
func (b *Base) Destroyed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.destroyed
}

// HandleStandardOp implements the GridService port type operations that
// every service shares. Returns handled=false for service-specific ops.
func (b *Base) HandleStandardOp(call *Call) (reply []byte, handled bool, err error) {
	switch call.Op {
	case "FindServiceData":
		name := string(call.Body)
		v, ok := b.Data.Query(name)
		if !ok {
			return nil, true, fmt.Errorf("ogsa: no service data element %q", name)
		}
		return v, true, nil
	case "Destroy":
		b.Destroy()
		return []byte("destroyed"), true, nil
	default:
		return nil, false, nil
	}
}

// ErrServiceDestroyed is returned when invoking a destroyed service.
var ErrServiceDestroyed = errors.New("ogsa: service destroyed")

// ErrNoSuchService is returned for unknown handles.
var ErrNoSuchService = errors.New("ogsa: no such service")
