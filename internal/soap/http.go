package soap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxHTTPBody caps how much of an HTTP body is read (matches the wire
// frame cap so both carriages bound messages identically).
const maxHTTPBody = 1 << 24

// readBody reads an HTTP body into a buffer sized from Content-Length
// when the peer declared one, avoiding ReadAll's repeated grow-and-copy
// on large envelopes (large exchange bodies make these common). An
// undeclared length degrades to the incremental path. A body over the
// cap, declared or not, is an error that says so: cut to the cap it would
// reach the parser as a malformed envelope and hide the real reason.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	switch {
	case contentLength > maxHTTPBody:
		return nil, errBodyOverCap
	case contentLength > 0:
		buf := make([]byte, contentLength)
		// A body shorter than its declared length is a transport
		// failure (peer died mid-response) and must surface as one, not
		// as a truncated envelope for upper layers to misclassify.
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	data, err := io.ReadAll(io.LimitReader(r, maxHTTPBody+1))
	if len(data) > maxHTTPBody {
		return nil, errBodyOverCap
	}
	return data, err
}

var errBodyOverCap = errors.New("soap: body exceeds the 16 MiB cap")

// Handler processes one envelope and returns the reply.
type Handler func(*Envelope) (*Envelope, error)

// Dispatcher routes envelopes by action prefix. Registering action "x"
// matches "x" exactly; registering "x/" matches any action with that
// prefix (operation families of one service).
type Dispatcher struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewDispatcher creates an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[string]Handler)}
}

// Handle registers a handler for an action (or action prefix ending "/").
func (d *Dispatcher) Handle(action string, h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers[action] = h
}

// Dispatch routes an envelope to its handler.
func (d *Dispatcher) Dispatch(env *Envelope) (*Envelope, error) {
	d.mu.RLock()
	h, ok := d.handlers[env.Action]
	if !ok {
		// Longest matching prefix registered with trailing "/".
		best := ""
		for pattern := range d.handlers {
			if strings.HasSuffix(pattern, "/") && strings.HasPrefix(env.Action, pattern) && len(pattern) > len(best) {
				best = pattern
			}
		}
		if best != "" {
			h, ok = d.handlers[best], true
		}
	}
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoHandler, env.Action)
	}
	return h(env)
}

// Server is an HTTP binding for a dispatcher: envelopes are POSTed as
// XML and replies returned in the response body.
type Server struct {
	dispatcher *Dispatcher
	httpServer *http.Server
	listener   net.Listener
}

// NewServer binds the dispatcher on addr ("127.0.0.1:0" for ephemeral).
func NewServer(addr string, d *Dispatcher) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{dispatcher: d, listener: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/soap", s.serveHTTP)
	s.httpServer = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.httpServer.Serve(ln)
	return s, nil
}

// URL returns the endpoint URL.
func (s *Server) URL() string { return "http://" + s.listener.Addr().String() + "/soap" }

// Close shuts the server down.
func (s *Server) Close() error { return s.httpServer.Close() }

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	data, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	env, err := Unmarshal(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply, err := s.dispatcher.Dispatch(env)
	if err != nil {
		reply = env.FaultReply("Receiver", err.Error())
	}
	out, err := reply.Marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(out))) // or a large reply goes out chunked, past readBody's sized path
	w.Write(out)
}

// Client posts envelopes to a SOAP endpoint.
type Client struct {
	// Endpoint is the service URL.
	Endpoint string
	// HTTP allows customising the underlying client; nil uses a default
	// with a 30s timeout.
	HTTP *http.Client
}

// Call sends the envelope and parses the reply. A SOAP fault in the reply
// is returned as a *Fault error alongside the envelope.
func (c *Client) Call(env *Envelope) (*Envelope, error) {
	return c.CallContext(context.Background(), env)
}

// CallContext is Call honoring ctx: the HTTP round-trip is canceled when
// the context ends, aborting an in-flight RPC.
func (c *Client) CallContext(ctx context.Context, env *Envelope) (*Envelope, error) {
	data, err := env.Marshal()
	if err != nil {
		return nil, err
	}
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	// bytes.NewReader — a string conversion here would copy the whole
	// marshaled envelope once more per call.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	resp, err := hc.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("soap: POST: %w", err)
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("soap: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	reply, err := Unmarshal(body)
	if err != nil {
		return nil, err
	}
	if reply.Fault != nil {
		return reply, reply.Fault
	}
	return reply, nil
}

// Pipe is an in-memory SOAP transport: a client Call function wired
// directly to a dispatcher, for co-located services and tests.
func Pipe(d *Dispatcher) func(*Envelope) (*Envelope, error) {
	return func(env *Envelope) (*Envelope, error) {
		// Round-trip through the wire form so in-memory behaves like HTTP.
		data, err := env.Marshal()
		if err != nil {
			return nil, err
		}
		parsed, err := Unmarshal(data)
		if err != nil {
			return nil, err
		}
		reply, err := d.Dispatch(parsed)
		if err != nil {
			return nil, err
		}
		if reply.Fault != nil {
			return reply, reply.Fault
		}
		return reply, nil
	}
}
