// Package wssec implements the GT3 Web-services security protocols of the
// paper (§4.4, §5.1): WS-SecureConversation (security-context
// establishment, in WS-Trust's RequestSecurityToken exchange, whose
// tokens are the same GSS tokens GT2 frames over TCP, here carried in SOAP
// envelopes) and the WS-Policy document a hosting environment publishes
// (§4.3).
package wssec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/gss"
	"repro/internal/soap"
)

// SOAP actions of the WS-SecureConversation binding.
const (
	ActionRST  = "wssc/RequestSecurityToken"         // carries GSS token1
	ActionRSTR = "wssc/RequestSecurityTokenResponse" // carries GSS token3
)

// SCTHeader carries the security-context-token identifier on secured
// messages.
const SCTHeader = "wssc:SecurityContextToken"

// Transport is how envelopes reach the peer: an HTTP client call or an
// in-memory pipe. ctx governs the round trip: its end aborts an
// exchange in flight.
type Transport func(context.Context, *soap.Envelope) (*soap.Envelope, error)

// Conversation is an established client-side secure conversation.
type Conversation struct {
	ContextID string
	// Resumed reports whether this conversation was derived from an
	// earlier one via ActionResume instead of the full bootstrap.
	Resumed   bool
	ctx       *gss.Context
	transport Transport
}

// EstablishConversation runs the WS-SecureConversation handshake against
// a service endpoint. The GSS tokens are exactly those of the GT2
// transport; only the carriage differs (SOAP request/response instead of
// raw frames), which is the paper's §5.1 point. ctx governs both token
// exchanges; the conversation's later calls go through the same
// transport under their own contexts.
func EstablishConversation(ctx context.Context, cfg gss.Config, transport Transport) (*Conversation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	init, err := gss.NewInitiator(cfg)
	if err != nil {
		return nil, err
	}
	t1, err := init.Start()
	if err != nil {
		return nil, err
	}
	req1 := soap.NewEnvelope(ActionRST, t1)
	resp1, err := transport(ctx, req1)
	if err != nil {
		return nil, fmt.Errorf("wssec: RST exchange: %w", err)
	}
	sct, ok := resp1.Header(SCTHeader)
	if !ok {
		return nil, errors.New("wssec: RSTR missing security context token")
	}
	t3, gctx, err := init.Finish(resp1.Body)
	if err != nil {
		return nil, err
	}
	req2 := soap.NewEnvelope(ActionRSTR, t3)
	req2.SetHeader(SCTHeader, sct.Content)
	resp2, err := transport(ctx, req2)
	if err != nil {
		return nil, fmt.Errorf("wssec: RSTR exchange: %w", err)
	}
	if resp2.Fault != nil {
		return nil, resp2.Fault
	}
	gss.ObserveHandshake(time.Since(start))
	return &Conversation{ContextID: string(sct.Content), ctx: gctx, transport: transport}, nil
}

// Context exposes the underlying GSS context.
func (c *Conversation) Context() *gss.Context { return c.ctx }

// Peer returns the authenticated service identity.
func (c *Conversation) Peer() gss.Peer { return c.ctx.Peer() }

// Call sends an application envelope through the secure conversation
// under ctx: the body is wrapped (encrypted + integrity + ordering)
// under the context with one exact-size allocation (WrapInto), and the
// reply body decrypted in place.
func (c *Conversation) Call(ctx context.Context, env *soap.Envelope) (*soap.Envelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wrapped, err := c.ctx.WrapInto(make([]byte, 0, len(env.Body)+gss.WrapOverhead), env.Body)
	if err != nil {
		return nil, err
	}
	secured := *env
	secured.Body = wrapped
	secured.Headers = append([]soap.HeaderBlock(nil), env.Headers...) // the copy must not mutate env's backing array
	secured.SetHeader(SCTHeader, []byte(c.ContextID))
	reply, err := c.transport(ctx, &secured)
	if err != nil {
		return nil, err
	}
	if reply.Fault != nil {
		return reply, reply.Fault
	}
	// The reply envelope was freshly unmarshaled; its body buffer is
	// ours to decrypt in place.
	plain, err := c.ctx.UnwrapInPlace(reply.Body)
	if err != nil {
		return nil, fmt.Errorf("wssec: unwrapping reply: %w", err)
	}
	out := *reply
	out.Body = plain
	return &out, nil
}

// maxSessions bounds a manager's live-session table. The
// minute-throttled expiry sweep alone is not a bound: long-lived contexts
// accumulating faster than they lapse would grow the table without limit.
const maxSessions = 4096

// ConversationManager is the service side: it answers the RST/RSTR
// actions and unwraps secured application messages.
type ConversationManager struct {
	cfg gss.Config

	mu         sync.Mutex
	pending    map[string]*pendingAccept
	sessions   map[string]*serverSession
	lastExpire time.Time
	evicted    uint64
}

// pendingAccept is a half-established acceptor between RST and RSTR;
// started stamps the RST arrival so the server-side handshake histogram
// covers the full two-round-trip establishment, matching what the
// client observes.
type pendingAccept struct {
	acc     *gss.Acceptor
	started time.Time
}

type serverSession struct {
	ctx  *gss.Context
	peer gss.Peer

	// usedNonces records client nonces already spent on ActionResume,
	// so a captured resume request cannot be replayed to mint further
	// sessions. Bounded by maxResumesPerSession.
	usedNonces map[string]struct{}
}

// NewConversationManager creates a manager for a service credential.
func NewConversationManager(cfg gss.Config) *ConversationManager {
	return &ConversationManager{
		cfg:      cfg,
		pending:  make(map[string]*pendingAccept),
		sessions: make(map[string]*serverSession),
	}
}

// Evicted reports how many live sessions were dropped to honor the cap
// (expiry-sweep removals are not counted).
func (m *ConversationManager) Evicted() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// storeSession inserts a session, evicting to stay under the cap. The
// victim is the session closest to its expiry — the one the sweep would
// reclaim first anyway — found by an O(n) scan, acceptable because
// eviction only runs with the table full. Lapsed sessions are swept
// first so a full-but-stale table never costs a live conversation.
func (m *ConversationManager) storeSession(id string, s *serverSession) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sessions) >= maxSessions {
		m.expireLocked()
	}
	for len(m.sessions) >= maxSessions {
		victim := ""
		var soonest time.Time
		for vid, vs := range m.sessions {
			if exp := vs.ctx.Expiry(); victim == "" || exp.Before(soonest) {
				victim, soonest = vid, exp
			}
		}
		delete(m.sessions, victim)
		m.evicted++
	}
	m.sessions[id] = s
}

// Register installs the WS-SecureConversation actions on a dispatcher,
// including the one-round-trip ActionResume.
func (m *ConversationManager) Register(d *soap.Dispatcher) {
	d.Handle(ActionRST, m.handleRST)
	d.Handle(ActionRSTR, m.handleRSTR)
	d.Handle(ActionResume, m.handleResume)
}

func (m *ConversationManager) handleRST(env *soap.Envelope) (*soap.Envelope, error) {
	m.maybeExpire()
	acc, err := gss.NewAcceptor(m.cfg)
	if err != nil {
		return nil, err
	}
	t2, err := acc.Accept(env.Body)
	if err != nil {
		return nil, fmt.Errorf("wssec: accepting token1: %w", err)
	}
	idBytes, err := gridcrypto.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("sct-%x", idBytes)
	m.mu.Lock()
	m.pending[id] = &pendingAccept{acc: acc, started: time.Now()}
	m.mu.Unlock()
	reply := env.Reply(t2)
	reply.SetHeader(SCTHeader, []byte(id))
	return reply, nil
}

func (m *ConversationManager) handleRSTR(env *soap.Envelope) (*soap.Envelope, error) {
	sct, ok := env.Header(SCTHeader)
	if !ok {
		return nil, errors.New("wssec: RSTR missing context token")
	}
	id := string(sct.Content)
	m.mu.Lock()
	p, ok := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("wssec: unknown pending context %q", id)
	}
	ctx, err := p.acc.Complete(env.Body)
	if err != nil {
		return nil, fmt.Errorf("wssec: completing context: %w", err)
	}
	gss.ObserveHandshake(time.Since(p.started))
	m.storeSession(id, &serverSession{ctx: ctx, peer: ctx.Peer()})
	return env.Reply([]byte("established")), nil
}

// Sessions reports the number of live contexts.
func (m *ConversationManager) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// maybeExpire runs the lapsed-session sweep at most once per minute, so
// the establishment and resumption handlers keep the session table
// pruned without paying an O(sessions) scan on every call.
func (m *ConversationManager) maybeExpire() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.lastExpire) >= time.Minute {
		m.expireLocked()
	}
}

// expireLocked is the sweep body; callers hold the mutex.
func (m *ConversationManager) expireLocked() {
	m.lastExpire = time.Now()
	for id, s := range m.sessions {
		if s.ctx.Expired() {
			delete(m.sessions, id)
		}
	}
}

// Secure wraps an application handler: incoming secured envelopes are
// unwrapped and the authenticated peer passed to the handler; the reply
// body is wrapped before returning. Envelopes without a context token are
// rejected.
func (m *ConversationManager) Secure(handler func(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error)) soap.Handler {
	return func(env *soap.Envelope) (*soap.Envelope, error) {
		sct, ok := env.Header(SCTHeader)
		if !ok {
			return nil, errors.New("wssec: message lacks security context token")
		}
		m.mu.Lock()
		sess, ok := m.sessions[string(sct.Content)]
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("wssec: unknown security context %q", sct.Content)
		}
		// The inbound envelope was freshly unmarshaled: decrypt its body
		// in place instead of into a second buffer.
		plain, err := sess.ctx.UnwrapInPlace(env.Body)
		if err != nil {
			return nil, fmt.Errorf("wssec: unwrap: %w", err)
		}
		inner := *env
		inner.Body = plain
		reply, err := handler(sess.peer, &inner)
		if err != nil {
			return nil, err
		}
		wrapped, err := sess.ctx.WrapInto(make([]byte, 0, len(reply.Body)+gss.WrapOverhead), reply.Body)
		if err != nil {
			return nil, err
		}
		reply.Body = wrapped
		return reply, nil
	}
}
