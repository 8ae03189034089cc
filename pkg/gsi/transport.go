package gsi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/gsitransport"
	"repro/internal/ogsa"
	"repro/internal/record"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wssec"
	"repro/internal/xmlsec"
)

// Handler serves one secured exchange on a Server. By the time it runs,
// the transport has authenticated peer and the server's authorization
// pipeline (if any) has permitted the call; op and body are the
// application request. Op names beginning with "gsi.__" are reserved
// for the transport itself (the GT2 liveness ping) and never reach the
// handler.
type Handler func(ctx context.Context, peer Peer, op string, body []byte) ([]byte, error)

// Session is an established secured channel to one peer. Exchange is a
// request/response round-trip; every call honors its context's
// cancellation and deadline mid-RPC.
type Session interface {
	// Exchange sends op+body and returns the peer's reply.
	Exchange(ctx context.Context, op string, body []byte) ([]byte, error)
	// OpenStream opens a chunked byte stream for op (authorized once,
	// server-side, before any data flows). The stream owns the session
	// until its Close; see the Stream type for the protocol. Only GT2
	// sessions stream: GT3 sessions refuse.
	OpenStream(ctx context.Context, op string) (Stream, error)
	// Peer is the authenticated remote party (zero-valued on
	// ProtectionSigned GT3 sessions, which authenticate requests, not
	// the response channel).
	Peer() Peer
	// Close releases the session.
	Close() error
}

// Endpoint is a served address accepting sessions.
type Endpoint interface {
	// Addr is the dialable address: "host:port" for GT2, a URL for GT3.
	Addr() string
	// Close stops accepting and tears down live sessions.
	Close() error
}

// Transport is how secured sessions reach peers. The two
// implementations carry the very same GSS handshake tokens — the GT2
// transport frames them over TCP, the GT3 transport carries them in
// SOAP envelopes (the paper's §5.1 observation) — so callers choose by
// option, not by function name:
//
//	client, _ := env.NewClient(cred, gsi.WithTransport(gsi.TransportGT3()))
type Transport interface {
	// String names the transport ("gt2", "gt3").
	String() string
	// Dial establishes a secured session with the peer at endpoint.
	Dial(ctx context.Context, endpoint string, cfg DialConfig) (Session, error)
	// Serve accepts sessions on addr, delivering exchanges to a handler.
	Serve(ctx context.Context, addr string, cfg ServeConfig) (Endpoint, error)
}

// DialConfig is what a Transport needs to initiate sessions. Custom
// Transport implementations receive the resolved option set this way.
type DialConfig struct {
	// Context parameterises the GSS handshake.
	Context ContextConfig
	// Protection selects the message-protection mechanism.
	Protection ProtectionLevel

	// resumption and resumeKey, when set by a pooling client, let the
	// GT3 transport resume an established secure conversation (one
	// symmetric-crypto round trip) instead of re-running the WS-Trust
	// bootstrap. The key is the client's pool key rendered to a stable
	// string, so the two keyings can never diverge. Custom transports
	// never see either; they are plumbing between the session pool and
	// the built-in transports.
	resumption *wssec.ResumptionCache
	resumeKey  string
}

// ServeConfig is what a Transport needs to accept sessions.
type ServeConfig struct {
	// Context parameterises the acceptor side of handshakes.
	Context ContextConfig
	// Handler receives authenticated, authorized exchanges.
	Handler Handler
	// StreamHandler receives opened streams (Session.OpenStream on the
	// client side); nil refuses stream opens. Only the GT2 transport
	// serves streams.
	StreamHandler StreamHandler
	// Pipeline is the chain-aware authorization pipeline; when set it
	// gates every exchange and stream open (CAS assertion, VO ∩ local
	// policy, gridmap) on both transports. Nil serves every
	// authenticated peer.
	Pipeline *AuthorizationPipeline

	// ConfigureContainer, when set, observes the GT3 hosting container
	// after the exchange service is published and before the listener
	// opens — the facade's control plane uses it to register the
	// conversation table with its metrics and to publish the admin port
	// type. An error aborts Serve. GT2 has no container; transports
	// without one ignore the hook.
	ConfigureContainer func(*ogsa.Container) error

	// Tracer, when set, records server-side spans for every exchange
	// and stream, continuing the trace context received over the wire
	// (the GT2 trailing field, the GT3 SOAP header) so client and
	// server spans share one trace id. Nil disables tracing.
	Tracer *Tracer
}

// exchangeHandle is the service handle GT3 exchanges are routed under;
// exchangeResource names it as the resource both transports authorize
// exchanges and stream opens against.
const (
	exchangeHandle   = "gsi.exchange"
	exchangeResource = "ogsa:" + exchangeHandle
)

// reservedOpPrefix is the op namespace owned by the transport layer:
// ops under it never reach the authorizer or the application handler
// on either transport.
const reservedOpPrefix = "gsi.__"

// gt2PingOp is the infrastructure-level liveness probe of the GT2
// exchange protocol: answered by the server loop itself (one wrapped
// round trip proving peer, context, and record stream are all alive)
// without touching the pipeline or the application handler.
const gt2PingOp = reservedOpPrefix + "ping"

// streamOpenOp opens a chunked stream on a session. Its body names the
// application op the stream is for; the server authorizes that op —
// once, through its pipeline when it has one — before any chunk
// flows. Only GT2 knows it: streams ride GT2 sessions.
const streamOpenOp = reservedOpPrefix + "stream.open"

// gt2PingOpBytes/pongBytes keep the ping fast path allocation-free.
var (
	gt2PingOpBytes = []byte(gt2PingOp)
	pongBytes      = []byte("pong")
)

// --- GT2: the raw-socket transport -------------------------------------

type gt2Transport struct{}

// TransportGT2 returns the GT2 transport: the GSS handshake framed
// directly over TCP, followed by wrapped records (paper §3). Endpoints
// are "host:port" addresses.
func TransportGT2() Transport { return gt2Transport{} }

func (gt2Transport) String() string { return "gt2" }

// gt2 exchange framing: request = (op, body); reply = (status, payload)
// where status 0 carries a result and nonzero an error message.
const (
	gt2StatusOK byte = iota
	gt2StatusUnauthorized
	gt2StatusNotFound
	gt2StatusError
)

func gt2EncodeRequest(op string, body []byte) []byte {
	return wire.NewEncoder().Str(op).Bytes(body).Finish()
}

func gt2DecodeRequest(b []byte) (op string, body []byte, err error) {
	d := wire.NewDecoder(b)
	op = d.Str()
	body = d.Bytes()
	return op, body, d.Done()
}

func gt2EncodeReply(status byte, payload []byte) []byte {
	return wire.NewEncoder().U8(status).Bytes(payload).Finish()
}

func gt2DecodeReply(b []byte) (status byte, payload []byte, err error) {
	d := wire.NewDecoder(b)
	status = d.U8()
	payload = d.Bytes()
	return status, payload, d.Done()
}

func gt2Status(err error) byte {
	switch {
	case errors.Is(err, ErrUnauthorized):
		return gt2StatusUnauthorized
	case errors.Is(err, ErrNotFound):
		return gt2StatusNotFound
	default:
		return gt2StatusError
	}
}

// errRemoteStatus marks errors the peer reported over an intact record
// stream: the exchange failed, but the connection is still safe to
// reuse (the session pool branches on this when deciding poisoning).
var errRemoteStatus = errors.New("gsi: remote status")

func gt2StatusErr(status byte, msg string) error {
	remote := fmt.Errorf("%w: %s", errRemoteStatus, msg)
	switch status {
	case gt2StatusUnauthorized:
		return &Error{Op: "gsi.Session.Exchange", Kind: ErrUnauthorized, Err: remote}
	case gt2StatusNotFound:
		return &Error{Op: "gsi.Session.Exchange", Kind: ErrNotFound, Err: remote}
	default:
		return &Error{Op: "gsi.Session.Exchange", Err: remote}
	}
}

func (gt2Transport) Dial(ctx context.Context, endpoint string, cfg DialConfig) (Session, error) {
	conn, err := gsitransport.DialContext(ctx, endpoint, cfg.Context)
	if err != nil {
		return nil, err
	}
	return &gt2Session{conn: conn}, nil
}

type gt2Session struct {
	conn *gsitransport.Conn
	mu   sync.Mutex // serializes request/response pairs on the record stream
}

// roundTrip performs one request/reply pair on the record layer: the
// request is assembled directly into a pooled frame buffer (sealed in
// place, one write), the reply is read into a pooled buffer and opened
// in place. On success the reply payload is returned as a view backed
// by buf — the caller must Free it. Callers hold s.mu.
func (s *gt2Session) roundTrip(ctx context.Context, op string, body []byte) (payload []byte, buf *record.Buf, err error) {
	// A traced operation appends its span context as a fixed-size
	// trailer behind the (op, body) layout; untraced requests are
	// byte-identical to the pre-trace wire format.
	sp := trace.SpanFromContext(ctx)
	extra := 0
	if sp != nil {
		extra = trace.EncodedLen
	}
	reqBuf := record.Get(gsitransport.SendOverhead + 8 + len(op) + len(body) + extra)
	var e wire.Encoder
	e.Reset(reqBuf.B[:gsitransport.Headroom]).Str(op).Bytes(body)
	if sp != nil {
		var tmp [trace.EncodedLen]byte
		e.Raw(sp.Context().Encode(tmp[:0]))
	}
	frame := e.Finish()
	err = s.conn.SendAssembled(ctx, frame)
	reqBuf.Free()
	if err != nil {
		return nil, nil, err
	}
	reply, rbuf, err := s.conn.ReceiveView(ctx)
	if err != nil {
		return nil, nil, err
	}
	d := wire.NewDecoder(reply)
	status := d.U8()
	payload = d.View()
	if err := d.Done(); err != nil {
		rbuf.Free()
		return nil, nil, err
	}
	if status != gt2StatusOK {
		err = gt2StatusErr(status, string(payload))
		rbuf.Free()
		return nil, nil, err
	}
	return payload, rbuf, nil
}

func (s *gt2Session) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload, buf, err := s.roundTrip(ctx, op, body)
	if err != nil {
		return nil, opErr("gsi.Session.Exchange", err)
	}
	// The payload view dies with the pooled buffer; the caller owns the
	// result, so this copy is the one unavoidable allocation.
	out := make([]byte, len(payload))
	copy(out, payload)
	buf.Free()
	return out, nil
}

func (s *gt2Session) Peer() Peer { return s.conn.Peer() }

func (s *gt2Session) Close() error { return s.conn.Close() }

// Healthy is the I/O-free reuse check the session pool runs: record
// stream intact, security context unexpired.
func (s *gt2Session) Healthy() bool { return s.conn.Healthy() }

// Probe is the active liveness check: one ping exchange through the
// secured stream, answered by the server loop below the application.
// It rides the pooled record path end to end and — unlike Exchange —
// discards the payload view instead of copying it, so an idle-pool
// probe allocates nothing.
func (s *gt2Session) Probe(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, buf, err := s.roundTrip(ctx, gt2PingOp, nil)
	if err != nil {
		return err
	}
	buf.Free()
	return nil
}

func (t gt2Transport) Serve(ctx context.Context, addr string, cfg ServeConfig) (Endpoint, error) {
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	serveCtx, cancel := context.WithCancel(ctx)
	listener := gsitransport.NewListener(inner, cfg.Context)
	ep := &gt2Endpoint{addr: inner.Addr().String(), cancel: cancel, listener: listener}
	go func() {
		for {
			conn, err := listener.AcceptContext(serveCtx)
			if err != nil {
				if serveCtx.Err() != nil || errors.Is(err, net.ErrClosed) {
					return
				}
				continue // a failed handshake must not stop the acceptor
			}
			go serveGT2Conn(serveCtx, conn, cfg)
		}
	}()
	return ep, nil
}

// sendGT2Reply assembles a status/payload reply directly in a pooled
// frame buffer and sends it sealed in place.
func sendGT2Reply(ctx context.Context, conn *gsitransport.Conn, status byte, payload []byte) error {
	buf := record.Get(gsitransport.SendOverhead + 5 + len(payload))
	var e wire.Encoder
	frame := e.Reset(buf.B[:gsitransport.Headroom]).U8(status).Bytes(payload).Finish()
	err := conn.SendAssembled(ctx, frame)
	buf.Free()
	return err
}

// maxInternedOps bounds the per-connection op-name intern table so a
// hostile peer cycling op names cannot grow it without limit.
const maxInternedOps = 1024

// serveGT2Conn answers exchanges on one accepted connection until the
// peer hangs up or the serve context ends. The serve context is watched
// once per connection (CloseOnDone) rather than once per record, and
// the request path runs on pooled record views: the only steady-state
// allocations are the ones the application handler itself makes.
//
// The body slice a Handler receives is a view into a pooled record
// buffer, valid only for the duration of the call — handlers that
// retain it must copy (returning it, as an echo handler does, is safe:
// the reply is sealed before the buffer is reused).
func serveGT2Conn(ctx context.Context, conn *gsitransport.Conn, cfg ServeConfig) {
	defer conn.Close()
	stop := conn.CloseOnDone(ctx)
	defer stop()
	peer := conn.Peer()
	tracer := cfg.Tracer
	var peerDN string
	if tracer != nil {
		peerDN = peer.Identity.String()
	}
	// handshakeSpan emits the connection's handshake timing once, as a
	// retroactive child of the first traced span on the connection —
	// the handshake happened before any trace context arrived, so it
	// joins the trace after the fact.
	hsEmitted := false
	handshakeSpan := func(sp *trace.Span) {
		if hsEmitted || sp == nil {
			return
		}
		hsEmitted = true
		start, d := conn.HandshakeTiming()
		sp.AddTimed("server.handshake", start, d, peerDN)
	}
	// Op names are interned per connection so the string conversion is
	// paid once per distinct op, not once per exchange.
	interned := make(map[string]string)
	bg := context.Background() // cancellation arrives via CloseOnDone
	for {
		req, rbuf, err := conn.ReceiveView(bg)
		if err != nil {
			return
		}
		d := wire.NewDecoder(req)
		opView := d.View()
		body := d.View()
		// The optional trace-context trailer is consumed regardless of
		// whether this endpoint traces — a traced client talking to an
		// untraced server must still frame-decode cleanly.
		var remote trace.SpanContext
		if tail := d.Tail(trace.EncodedLen); tail != nil {
			remote, _ = trace.DecodeSpanContext(tail)
		}
		if err := d.Done(); err != nil {
			rbuf.Free()
			return
		}
		// Infrastructure fast path: the liveness ping answers below the
		// pipeline and allocates nothing.
		if bytes.Equal(opView, gt2PingOpBytes) {
			rbuf.Free()
			if err := sendGT2Reply(bg, conn, gt2StatusOK, pongBytes); err != nil {
				return
			}
			continue
		}
		op, ok := interned[string(opView)] // no-alloc map probe
		if !ok {
			op = string(opView)
			if len(interned) < maxInternedOps {
				interned[op] = op
			}
		}
		if op == streamOpenOp {
			var sp *trace.Span
			if tracer != nil {
				sp = tracer.StartRemote(remote, "server.stream")
				sp.SetPeer(peerDN)
				handshakeSpan(sp)
			}
			if !serveGT2Stream(ctx, conn, cfg, peer, body, rbuf, sp) {
				return
			}
			continue
		}
		var status byte = gt2StatusOK
		var payload []byte
		if strings.HasPrefix(op, reservedOpPrefix) {
			status, payload = gt2StatusNotFound, []byte("gsi: reserved op "+op)
		} else {
			// The server span continues the client's trace when a context
			// arrived; otherwise it roots a server-local trace.
			var sp *trace.Span
			hctx := ctx
			if tracer != nil {
				sp = tracer.StartRemote(remote, "server.exchange")
				sp.SetPeer(peerDN)
				handshakeSpan(sp)
				hctx = trace.ContextWithSpan(ctx, sp)
			}
			// Authorization: CAS assertion, VO ∩ local policy, gridmap —
			// with the mapped account surfaced on the handler's Peer.
			exPeer := peer
			asp := sp.StartChild("server.authz")
			account, authErr := authorizeCall(hctx, cfg.Pipeline, peer, exchangeResource, op)
			exPeer.LocalAccount = account
			asp.SetError(authErr)
			asp.End()
			if authErr != nil {
				status, payload = gt2Status(authErr), []byte(authErr.Error())
				sp.SetError(authErr)
			} else if out, err := cfg.Handler(hctx, exPeer, op, body); err != nil {
				status, payload = gt2Status(err), []byte(err.Error())
				sp.SetError(err)
			} else {
				payload = out
			}
			if sp != nil {
				sp.AddBytes(int64(len(body)))
				sp.End()
			}
		}
		// The reply is sealed from payload before the request buffer is
		// released: a handler echoing its body view stays valid.
		err = sendGT2Reply(bg, conn, status, payload)
		rbuf.Free()
		if err != nil {
			return
		}
	}
}

// serveGT2Stream handles one gsi.__stream.open on a GT2 connection:
// authorize the named op, then run the StreamHandler over this
// connection, followed by the end-of-transfer sequence — the handler's
// error travels as the stream's terminal record, and the client half is
// consumed to its own if the handler did not. sp (nil when untraced)
// covers the handler's whole transfer and is ended here. Reports whether
// the connection is still usable for further exchanges: one that could
// not resynchronize is left broken.
func serveGT2Stream(ctx context.Context, conn *gsitransport.Conn, cfg ServeConfig, peer Peer, body []byte, rbuf *record.Buf, sp *trace.Span) bool {
	bg := context.Background()
	op := string(body)
	rbuf.Free()
	refuse := func(status byte, err error) bool {
		sp.SetError(err)
		sp.End()
		return sendGT2Reply(bg, conn, status, []byte(err.Error())) == nil
	}
	switch {
	case cfg.StreamHandler == nil:
		return refuse(gt2StatusNotFound, errors.New("gsi: endpoint does not accept streams"))
	case op == "" || strings.HasPrefix(op, reservedOpPrefix):
		return refuse(gt2StatusNotFound, errors.New("gsi: invalid stream op "+op))
	}
	exPeer := peer
	asp := sp.StartChild("server.authz")
	account, authErr := authorizeCall(ctx, cfg.Pipeline, peer, exchangeResource, op)
	exPeer.LocalAccount = account
	asp.SetError(authErr)
	asp.End()
	if authErr != nil {
		return refuse(gt2Status(authErr), authErr)
	}
	if err := sendGT2Reply(bg, conn, gt2StatusOK, nil); err != nil {
		sp.SetError(err)
		sp.End()
		return false
	}
	// The stream's record I/O runs under Background like the exchange
	// loop's: cancellation arrives through the connection-lifetime
	// CloseOnDone watcher, not a per-record watcher goroutine.
	pipe := gsitransport.NewStream(bg, conn)
	var hstream Stream = &serverGT2Stream{pipe: pipe, peer: exPeer}
	var ts *tracedStream
	if sp != nil {
		// The traced wrapper accounts bytes and cumulative read/write
		// time; it ends sp (emitting the per-direction child spans) when
		// the handler is done.
		ts = newTracedStream(hstream, sp, "server")
		hstream = ts
	}
	herr := cfg.StreamHandler(ctx, exPeer, op, hstream)
	if ts != nil {
		ts.finish(herr)
	}
	pipe.Finish(herr) // the verdict is in the connection's state
	return !conn.Broken()
}

type gt2Endpoint struct {
	addr     string
	cancel   context.CancelFunc
	listener *gsitransport.Listener
}

func (e *gt2Endpoint) Addr() string { return e.addr }

func (e *gt2Endpoint) Close() error {
	e.cancel()
	return e.listener.Close()
}

// --- GT3: the SOAP/HTTP transport --------------------------------------

type gt3Transport struct{}

// TransportGT3 returns the GT3 transport: the same handshake tokens
// carried in WS-SecureConversation SOAP envelopes over HTTP, or
// per-message XML signatures for ProtectionSigned (paper §4.4, §5.1).
// Endpoints are SOAP URLs as returned by Endpoint.Addr.
func TransportGT3() Transport { return gt3Transport{} }

func (gt3Transport) String() string { return "gt3" }

func (gt3Transport) Dial(ctx context.Context, endpoint string, cfg DialConfig) (Session, error) {
	soapClient := &soap.Client{Endpoint: endpoint}
	transport := func(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
		return soapClient.CallContext(ctx, env)
	}
	if cfg.Protection == ProtectionSigned {
		return &gt3SignedSession{cred: cfg.Context.Credential, transport: transport}, nil
	}
	if cfg.resumption != nil && cfg.resumeKey != "" {
		conv, _, err := cfg.resumption.EstablishOrResume(ctx, cfg.resumeKey, cfg.Context, transport)
		if err != nil {
			return nil, err
		}
		return &gt3Session{conv: conv}, nil
	}
	conv, err := wssec.EstablishConversationContext(ctx, cfg.Context, transport)
	if err != nil {
		return nil, err
	}
	return &gt3Session{conv: conv}, nil
}

type gt3Session struct {
	conv *wssec.Conversation
}

func (s *gt3Session) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	env := soap.NewEnvelope("ogsa-sc/"+exchangeHandle+"/"+op, body)
	setTraceHeader(ctx, env)
	reply, err := s.conv.CallContext(ctx, env)
	if err != nil {
		return nil, opErr("gsi.Session.Exchange", err)
	}
	return reply.Body, nil
}

func (s *gt3Session) Peer() Peer { return s.conv.Peer() }

func (s *gt3Session) Close() error { return nil }

// Healthy reports whether the conversation's context has not lapsed.
func (s *gt3Session) Healthy() bool { return !s.conv.Context().Expired() }

// gt3SignedSession is the stateless variant: no context, each message
// signed under the caller's credential.
type gt3SignedSession struct {
	cred      *Credential
	transport wssec.ContextTransport
}

func (s *gt3SignedSession) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	env := soap.NewEnvelope("ogsa/"+exchangeHandle+"/"+op, body)
	if err := xmlsec.SignEnvelope(env, s.cred); err != nil {
		return nil, opErr("gsi.Session.Exchange", err)
	}
	reply, err := s.transport(ctx, env)
	if err != nil {
		return nil, opErr("gsi.Session.Exchange", err)
	}
	if reply.Fault != nil {
		return nil, opErr("gsi.Session.Exchange", reply.Fault)
	}
	return reply.Body, nil
}

func (s *gt3SignedSession) Peer() Peer { return Peer{} }

func (s *gt3SignedSession) Close() error { return nil }

func (gt3Transport) Serve(ctx context.Context, addr string, cfg ServeConfig) (Endpoint, error) {
	containerCfg := ogsa.ContainerConfig{
		Name:          exchangeHandle,
		Credential:    cfg.Context.Credential,
		TrustStore:    cfg.Context.TrustStore,
		RejectLimited: cfg.Context.RejectLimited,
		Now:           cfg.Context.Now,
	}
	serveCtx, cancel := context.WithCancel(ctx)
	svc := &handlerService{ctx: serveCtx, h: cfg.Handler, tracer: cfg.Tracer}
	if cfg.Pipeline != nil {
		containerCfg.ChainAuthorizer = &gt3AuthGate{pipeline: cfg.Pipeline, tracer: cfg.Tracer}
	}
	container, err := ogsa.NewContainer(containerCfg)
	if err != nil {
		cancel()
		return nil, err
	}
	container.Publish(exchangeHandle, svc)
	if cfg.ConfigureContainer != nil {
		if err := cfg.ConfigureContainer(container); err != nil {
			cancel()
			return nil, err
		}
	}
	srv, err := soap.NewServer(addr, container.Dispatcher())
	if err != nil {
		cancel()
		return nil, err
	}
	return &gt3Endpoint{url: srv.URL(), cancel: cancel, close: srv.Close}, nil
}

// handlerService adapts a Handler to the OGSA service interface. The
// per-exchange context is the serve context: SOAP's request path carries
// no caller deadline, so cancellation here means endpoint shutdown.
type handlerService struct {
	ctx    context.Context
	h      Handler
	tracer *Tracer
}

func (s *handlerService) Invoke(call *ogsa.Call) ([]byte, error) {
	if strings.HasPrefix(call.Op, reservedOpPrefix) {
		return nil, fmt.Errorf("gsi: reserved op %s not found", call.Op)
	}
	if s.tracer == nil {
		return s.h(s.ctx, callerPeer(call), call.Op, call.Body)
	}
	// The server span continues the trace context the OGSA router
	// lifted off the envelope's trace header into the call.
	peer := callerPeer(call)
	sp := s.tracer.StartRemote(call.Trace, "server.exchange")
	sp.SetPeer(peerDNOf(peer))
	out, err := s.h(trace.ContextWithSpan(s.ctx, sp), peer, call.Op, call.Body)
	sp.AddBytes(int64(len(call.Body)))
	sp.SetError(err)
	sp.End()
	return out, err
}

func callerPeer(call *ogsa.Call) Peer {
	return Peer{
		Anonymous:    call.Caller.Anonymous,
		Identity:     call.Caller.Name,
		Subject:      call.Caller.Name,
		LocalAccount: call.Caller.LocalAccount,
	}
}

type gt3Endpoint struct {
	url    string
	cancel context.CancelFunc
	close  func() error
}

func (e *gt3Endpoint) Addr() string { return e.url }

func (e *gt3Endpoint) Close() error {
	e.cancel()
	return e.close()
}

// gt3AuthGate is the container's chain-authorization hook on an
// endpoint with a pipeline: every call is authorized as it arrives,
// through authorizeCall. When the router lifted a trace context off the
// envelope, the decision is recorded as a server.authz span in the
// caller's trace.
type gt3AuthGate struct {
	pipeline *AuthorizationPipeline
	tracer   *Tracer
}

func (g *gt3AuthGate) AuthorizeChain(ctx context.Context, peer Peer, resource, action string) (account string, err error) {
	if g.tracer != nil {
		asp := g.tracer.StartRemote(trace.RemoteFromContext(ctx), "server.authz")
		if peer.Anonymous {
			asp.SetPeer("anonymous")
		} else {
			asp.SetPeer(peerDNOf(peer))
		}
		defer func() {
			asp.SetError(err)
			asp.End()
		}()
	}
	return authorizeCall(ctx, g.pipeline, peer, resource, action)
}

// --- shared server-side authorization -----------------------------------

// authorizeCall is a server's one authorization path: every GT2
// exchange, every stream open and the GT3 gate decide through it.
// A server with a pipeline asks it — chain re-validation, decision cache
// and audit trail included — and gets the requester's gridmap account
// on permit, an ErrUnauthorized-classified error on deny; a server
// without one serves every authenticated peer.
func authorizeCall(ctx context.Context, p *AuthorizationPipeline, peer Peer, resource, action string) (account string, err error) {
	if p == nil {
		return "", nil
	}
	return p.AuthorizeChain(ctx, peer, resource, action)
}
