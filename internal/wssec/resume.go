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
	"repro/internal/wire"
)

// ActionResume is the one-round-trip session resumption of the binding:
// the client presents the token of an established conversation plus a
// fresh nonce, and both sides re-derive session keys from the existing
// context instead of re-running the WS-Trust bootstrap (no certificate
// chains, no signatures, no ECDH — just HKDF over shared secrets). This
// is how the expensive public-key handshake is amortized across many
// short-lived sessions, per the paper's §5.1 argument.
const ActionResume = "wssc/ResumeSecurityContext"

// maxResumesPerSession bounds how many children one established
// context may seed — a backstop keeping the server's session table
// finite even under pathological clients.
const maxResumesPerSession = 1024

// ResumeContext derives a fresh conversation from an established one in
// a single secured round trip: request carries the parent's context
// token and a client nonce, reply carries the server nonce and the new
// context token. The derived conversation has fresh wrap keys but the
// parent's authenticated peer and expiry (which is clamped to the
// credential lifetime at establishment, so resumption can never extend
// a credential's reach). The parent remains usable: many children can
// be derived from one bootstrap.
func (c *Conversation) ResumeContext(ctx context.Context, transport ContextTransport) (*Conversation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.ctx.Expired() {
		return nil, gss.ErrContextExpired
	}
	start := time.Now()
	clientNonce, err := gridcrypto.RandomBytes(gss.ResumeNonceSize)
	if err != nil {
		return nil, err
	}
	// The request proves possession of the parent context: context IDs
	// travel in cleartext headers, so without this MIC any observer
	// could mint server sessions attributed to the original peer.
	body := wire.NewEncoder().
		Bytes(clientNonce).
		Bytes(c.ctx.GetMIC(clientNonce)).
		Finish()
	req := soap.NewEnvelope(ActionResume, body)
	req.SetHeader(SCTHeader, []byte(c.ContextID))
	resp, err := transport(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("wssec: resume exchange: %w", err)
	}
	if resp.Fault != nil {
		return nil, resp.Fault
	}
	sct, ok := resp.Header(SCTHeader)
	if !ok {
		return nil, errors.New("wssec: resume reply missing security context token")
	}
	derived, err := c.ctx.Resume(clientNonce, resp.Body)
	if err != nil {
		return nil, fmt.Errorf("wssec: deriving resumed context: %w", err)
	}
	gss.ObserveResume(time.Since(start))
	return &Conversation{
		ContextID:    string(sct.Content),
		Resumed:      true,
		ctx:          derived,
		ctxTransport: transport,
		transport: func(env *soap.Envelope) (*soap.Envelope, error) {
			return transport(context.Background(), env)
		},
	}, nil
}

// handleResume answers ActionResume on the service side: verify the
// requester holds the parent context (MIC over its nonce), then derive
// a child context under a fresh server nonce and hand back the new
// token. Unknown, lapsed, or unproven contexts are rejected, forcing
// the client through the full bootstrap.
func (m *ConversationManager) handleResume(env *soap.Envelope) (*soap.Envelope, error) {
	sct, ok := env.Header(SCTHeader)
	if !ok {
		return nil, errors.New("wssec: resume request missing context token")
	}
	m.mu.Lock()
	sess, ok := m.sessions[string(sct.Content)]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("wssec: unknown security context %q", sct.Content)
	}
	d := wire.NewDecoder(env.Body)
	clientNonce := d.Bytes()
	mic := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("wssec: malformed resume request: %w", err)
	}
	if err := sess.ctx.VerifyMIC(clientNonce, mic); err != nil {
		return nil, fmt.Errorf("wssec: resume request not proven under context %q: %w", sct.Content, err)
	}
	// Each client nonce is good for exactly one resumption: a replayed
	// capture must not grow the session table. The nonce set is shared
	// by every descendant of one bootstrap (children inherit it below),
	// so the whole resumption tree of a context — not each hop — is
	// bounded by maxResumesPerSession: chaining parent→child→grandchild
	// cannot mint unbounded server state.
	m.mu.Lock()
	if sess.usedNonces == nil {
		sess.usedNonces = make(map[string]struct{})
	}
	_, replayed := sess.usedNonces[string(clientNonce)]
	exhausted := len(sess.usedNonces) >= maxResumesPerSession
	if !replayed && !exhausted {
		sess.usedNonces[string(clientNonce)] = struct{}{}
	}
	m.mu.Unlock()
	if replayed {
		return nil, fmt.Errorf("wssec: resume nonce replayed for context %q", sct.Content)
	}
	if exhausted {
		return nil, fmt.Errorf("wssec: context %q exhausted its resumption budget", sct.Content)
	}
	serverNonce, err := gridcrypto.RandomBytes(gss.ResumeNonceSize)
	if err != nil {
		return nil, err
	}
	derived, err := sess.ctx.Resume(clientNonce, serverNonce)
	if err != nil {
		return nil, fmt.Errorf("wssec: resuming context: %w", err)
	}
	idBytes, err := gridcrypto.RandomBytes(16)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("sct-%x", idBytes)
	m.storeSession(id, &serverSession{ctx: derived, peer: sess.peer, usedNonces: sess.usedNonces})
	m.maybeExpire()
	reply := env.Reply(serverNonce)
	reply.SetHeader(SCTHeader, []byte(id))
	return reply, nil
}

// ResumptionCache is the client-side secure-conversation cache: it
// remembers one established ("parent") conversation per key and mints
// cheap resumed children from it instead of re-running the bootstrap.
// Keys should identify everything that makes conversations
// interchangeable — endpoint, credential, and handshake flags. Safe for
// concurrent use.
type ResumptionCache struct {
	mu      sync.Mutex
	max     int
	parents map[string]*Conversation
	hits    uint64
	misses  uint64
}

// DefaultResumptionCacheSize bounds a cache created with max <= 0.
const DefaultResumptionCacheSize = 64

// NewResumptionCache creates a cache holding at most max parent
// conversations (max <= 0 selects DefaultResumptionCacheSize).
func NewResumptionCache(max int) *ResumptionCache {
	if max <= 0 {
		max = DefaultResumptionCacheSize
	}
	return &ResumptionCache{max: max, parents: make(map[string]*Conversation)}
}

// ResumptionStats reports cache effectiveness: a hit is a conversation
// obtained by resumption (1 round trip, symmetric crypto), a miss is a
// full bootstrap (2 round trips, public-key crypto).
type ResumptionStats struct {
	Hits   uint64
	Misses uint64
	Len    int
}

// Stats returns a snapshot of the cache counters.
func (rc *ResumptionCache) Stats() ResumptionStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResumptionStats{Hits: rc.hits, Misses: rc.misses, Len: len(rc.parents)}
}

// EstablishOrResume returns a live conversation for key: resumed from
// the cached parent when one exists and its context has not lapsed
// (expiry is tied to the credential lifetime), otherwise freshly
// bootstrapped via the full WS-Trust exchange and cached as the new
// parent. A failed resumption evicts the parent and falls back to the
// bootstrap — unless the failure was the caller's own context ending,
// which is returned as-is.
func (rc *ResumptionCache) EstablishOrResume(ctx context.Context, key string, cfg gss.Config, transport ContextTransport) (conv *Conversation, resumed bool, err error) {
	rc.mu.Lock()
	parent := rc.parents[key]
	rc.mu.Unlock()
	if parent != nil {
		if parent.Context().Expired() {
			rc.evict(key, parent)
		} else if child, err := parent.ResumeContext(ctx, transport); err == nil {
			rc.mu.Lock()
			rc.hits++
			rc.mu.Unlock()
			return child, true, nil
		} else if ctx.Err() != nil {
			return nil, false, err
		} else {
			rc.evict(key, parent)
		}
	}
	conv, err = EstablishConversationContext(ctx, cfg, transport)
	if err != nil {
		return nil, false, err
	}
	rc.mu.Lock()
	rc.misses++
	if len(rc.parents) >= rc.max {
		for k := range rc.parents {
			delete(rc.parents, k)
			break
		}
	}
	rc.parents[key] = conv
	rc.mu.Unlock()
	return conv, false, nil
}

// InvalidateMatching drops every cached parent whose key satisfies
// match, returning how many were dropped. Credential rotation uses it:
// cache keys embed the credential fingerprint, so dropping a retired
// credential's keys guarantees its resumption trees are never used to
// mint new conversations — even though the underlying contexts may
// remain cryptographically valid until the old credential's NotAfter.
func (rc *ResumptionCache) InvalidateMatching(match func(key string) bool) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := 0
	for k := range rc.parents {
		if match(k) {
			delete(rc.parents, k)
			n++
		}
	}
	return n
}

// evict removes key only if it still maps to parent (a concurrent
// bootstrap may have replaced it).
func (rc *ResumptionCache) evict(key string, parent *Conversation) {
	rc.mu.Lock()
	if rc.parents[key] == parent {
		delete(rc.parents, key)
	}
	rc.mu.Unlock()
}
