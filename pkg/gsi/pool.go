package gsi

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/soap"
	"repro/internal/wssec"
)

// Session-pool limits, chosen for interactive grid clients: a few
// parked connections per peer, retired before credential-scale
// lifetimes matter, with a cap that keeps one misbehaving caller from
// opening unbounded sockets to one host.
const (
	// poolMaxIdle is the idle sessions parked per pool key.
	poolMaxIdle = 4
	// poolIdleTTL is how long an idle session stays reusable.
	poolIdleTTL = 5 * time.Minute
	// poolMaxPerHost caps live sessions (checked out plus idle) per pool
	// key; checkouts beyond it wait for a return until their context ends.
	poolMaxPerHost = 16
	// probeAfter is the idle age beyond which a checkout actively probes
	// the session (one cheap ping round trip) before trusting it; fresher
	// sessions are reused on the strength of the I/O-free health check.
	probeAfter = 30 * time.Second
	// probeTimeout bounds the liveness probe.
	probeTimeout = 2 * time.Second
)

// poolKey identifies interchangeable sessions. Everything that shapes
// the security context of a session is part of the key — the endpoint,
// the transport, the protection level, every GSS handshake parameter
// (delegation, limited-proxy policy, peer pinning), and the exact client
// credential (by leaf fingerprint, so a rotated credential never
// inherits its predecessor's sessions) — plus the Environment itself,
// whose trust roots and clock the handshake validated against, so
// clients of different Environments sharing one pool can never bypass
// each other's trust policy. A checkout therefore never receives a session
// established under different terms than the calling client's options.
type poolKey struct {
	env           *Environment
	endpoint      string
	transport     string
	protection    ProtectionLevel
	delegation    bool
	rejectLimited bool
	expectedPeer  string
	credential    [32]byte // leaf certificate fingerprint
}

// poolKey keys the client's sessions to endpoint under cred.
func (c *Client) poolKey(endpoint string, cred *Credential) poolKey {
	s := &c.base
	return poolKey{
		env:           c.env,
		endpoint:      endpoint,
		transport:     s.transport.String(),
		protection:    s.protection,
		delegation:    s.delegation,
		rejectLimited: s.rejectLimited,
		expectedPeer:  s.expectedPeer.String(),
		credential:    cred.Leaf().Fingerprint(),
	}
}

// resumeScope renders the pool key as the stable string the GT3
// resumption cache is keyed by. Deriving it from poolKey keeps the two
// keyings in lockstep (an option added to poolKey cannot be forgotten
// here), and the environment appears as its process-unique random id —
// never a pointer, which GC address reuse could alias. Free-form fields
// (endpoint, expected peer) are %q-escaped so no crafted value can make
// two distinct keys render identically.
func (k poolKey) resumeScope() string {
	return fmt.Sprintf("%s|%q|%q|%d|d=%v|rl=%v|ep=%q|%x",
		k.env.id, k.endpoint, k.transport, k.protection, k.delegation,
		k.rejectLimited, k.expectedPeer, k.credential)
}

// idleSession is a parked session plus the instant it was parked.
type idleSession struct {
	sess  Session
	since time.Time
}

// hostPool is the per-key state: parked sessions (LIFO, so the warmest
// connection is reused first), the checked-out count, and the FIFO of
// checkouts waiting for capacity.
type hostPool struct {
	idle    []idleSession
	active  int
	waiters []chan struct{}
}

func (hp *hostPool) total() int { return hp.active + len(hp.idle) }

// signal wakes the longest-waiting checkout, if any. Callers hold the
// pool mutex.
func (hp *hostPool) signal() {
	if len(hp.waiters) > 0 {
		close(hp.waiters[0])
		hp.waiters = hp.waiters[1:]
	}
}

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	// Dials counts sessions established (each paid a handshake; for GT3
	// with a warm resumption cache, a cheap resumed one).
	Dials uint64
	// Hits counts checkouts satisfied from the idle pool (no handshake).
	Hits uint64
	// Evictions counts idle sessions discarded as stale, unhealthy, or
	// failing their liveness probe.
	Evictions uint64
	// Poisoned counts sessions discarded at return because an exchange
	// left them unsafe to reuse.
	Poisoned uint64
	// Resumes counts GT3 sessions whose conversation was resumed from
	// the secure-conversation cache instead of fully bootstrapped.
	Resumes uint64
	// Retired counts sessions closed because their credential was
	// retired by a rotation: idle sessions drained at RetireCredential
	// plus checked-out sessions discarded as they returned.
	Retired uint64
	// Idle and Active are the current session counts across all keys.
	Idle   int
	Active int
}

// SessionPool reuses established sessions across Connect/Exchange calls
// so the public-key handshake is paid once per connection instead of
// once per call. Checkouts are keyed by (endpoint, transport,
// protection, delegation, credential); state is context-aware (checkout
// honors its ctx; Close drains) and failures surface through the
// package taxonomy (ErrPoolExhausted, ErrContextClosed, ErrTransport).
// The pool also owns the GT3 secure-conversation resumption cache, so
// even a session the pool had to re-dial can skip the WS-Trust
// bootstrap. Safe for concurrent use; share one pool between clients
// freely.
type SessionPool struct {
	// The limits, poolMaxIdle, poolIdleTTL and poolMaxPerHost, as fields
	// so that tests can tighten them.
	maxIdle    int
	idleTTL    time.Duration
	maxPerHost int

	resume *wssec.ResumptionCache

	mu      sync.Mutex
	closed  bool
	hosts   map[poolKey]*hostPool
	retired map[[32]byte]time.Time // rotated-away fingerprints → their NotAfter

	dials       atomic.Uint64
	hits        atomic.Uint64
	evictions   atomic.Uint64
	poisoned    atomic.Uint64
	retiredSess atomic.Uint64
}

// NewSessionPool builds a standalone pool. Share it between clients
// with WithSessionPool.
func NewSessionPool() *SessionPool {
	return &SessionPool{
		maxIdle:    poolMaxIdle,
		idleTTL:    poolIdleTTL,
		maxPerHost: poolMaxPerHost,
		resume:     wssec.NewResumptionCache(0),
		hosts:      make(map[poolKey]*hostPool),
	}
}

// Stats returns a snapshot of the pool counters.
func (p *SessionPool) Stats() PoolStats {
	st := PoolStats{
		Dials:     p.dials.Load(),
		Hits:      p.hits.Load(),
		Evictions: p.evictions.Load(),
		Poisoned:  p.poisoned.Load(),
		Resumes:   p.resume.Stats().Hits,
		Retired:   p.retiredSess.Load(),
	}
	p.mu.Lock()
	for _, hp := range p.hosts {
		st.Idle += len(hp.idle)
		st.Active += hp.active
	}
	p.mu.Unlock()
	return st
}

// Close drains the pool: parked sessions are closed immediately,
// waiting checkouts fail with ErrPoolExhausted, and sessions still
// checked out are closed as they are returned. Closing twice is safe.
func (p *SessionPool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var toClose []Session
	for key, hp := range p.hosts {
		for _, it := range hp.idle {
			toClose = append(toClose, it.sess)
		}
		hp.idle = nil
		for _, w := range hp.waiters {
			close(w)
		}
		hp.waiters = nil
		p.reapLocked(key, hp)
	}
	p.mu.Unlock()
	var first error
	for _, sess := range toClose {
		if err := sess.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var errPoolClosed = errors.New("gsi: session pool closed")

func (p *SessionPool) host(key poolKey) *hostPool {
	hp := p.hosts[key]
	if hp == nil {
		hp = &hostPool{}
		p.hosts[key] = hp
	}
	return hp
}

// reapLocked drops a key's state once nothing references it, so a
// long-lived pool serving many ephemeral endpoints or rotated
// credentials does not accrete empty entries. Callers hold the mutex.
func (p *SessionPool) reapLocked(key poolKey, hp *hostPool) {
	if hp.active == 0 && len(hp.idle) == 0 && len(hp.waiters) == 0 {
		delete(p.hosts, key)
	}
}

// sessionHealth is the I/O-free liveness check a session may offer the
// pool (GT2 record-stream integrity, GT3 context expiry).
type sessionHealth interface{ Healthy() bool }

// sessionProber is the active liveness probe a session may offer: one
// cheap round trip proving the peer is still there.
type sessionProber interface {
	Probe(ctx context.Context) error
}

// dialRequest packages one potential dial for a pool checkout as plain
// values: unlike a closure it costs no allocation on the idle-hit path,
// which is what keeps the steady-state Exchange near zero allocs/op.
type dialRequest struct {
	client   *Client
	endpoint string
	cred     *Credential
}

func (d dialRequest) dial(ctx context.Context) (Session, error) {
	return d.client.dialSession(ctx, d.endpoint, d.cred)
}

// checkout returns a live session for key, in preference order: a
// parked idle session (probed first when it has been idle a while), a
// fresh dial when under the per-host cap, or — at the cap — whatever a
// returning caller frees, waiting no longer than ctx allows.
func (p *SessionPool) checkout(ctx context.Context, key poolKey, dial dialRequest) (*pooledSession, error) {
	const op = "gsi.SessionPool.Checkout"
	if err := ctx.Err(); err != nil {
		// The pool was never consulted: a dead context at entry is the
		// caller's, not exhaustion.
		return nil, &Error{Op: op, Kind: ErrContextClosed, Err: err}
	}
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, &Error{Op: op, Kind: ErrPoolExhausted, Err: errPoolClosed}
		}
		hp := p.host(key)

		// Prefer a parked session, warmest first.
		if n := len(hp.idle); n > 0 {
			it := hp.idle[n-1]
			hp.idle = hp.idle[:n-1]
			if time.Since(it.since) > p.idleTTL || !sessionHealthy(it.sess) {
				p.evictions.Add(1)
				hp.signal() // capacity freed
				p.mu.Unlock()
				it.sess.Close()
				p.mu.Lock()
				continue
			}
			hp.active++
			p.mu.Unlock()
			if time.Since(it.since) > probeAfter {
				if err := probeSession(ctx, it.sess); err != nil {
					p.evictions.Add(1)
					p.discard(key, it.sess)
					if ctxErr := ctx.Err(); ctxErr != nil {
						// Not queued at the cap — the context died while
						// probing, so this is closure, not exhaustion.
						return nil, &Error{Op: op, Kind: ErrContextClosed, Err: ctxErr}
					}
					p.mu.Lock()
					continue
				}
			}
			p.hits.Add(1)
			return &pooledSession{pool: p, key: key, sess: it.sess, reused: true}, nil
		}

		// Under the cap: establish a fresh session.
		if hp.total() < p.maxPerHost {
			hp.active++
			p.mu.Unlock()
			sess, err := dial.dial(ctx)
			if err != nil {
				p.discard(key, nil)
				return nil, err
			}
			p.dials.Add(1)
			return &pooledSession{pool: p, key: key, sess: sess}, nil
		}

		// At the cap: wait for a return, an eviction, or the context.
		w := make(chan struct{})
		hp.waiters = append(hp.waiters, w)
		p.mu.Unlock()
		select {
		case <-w:
			p.mu.Lock()
		case <-ctx.Done():
			p.mu.Lock()
			if !removeWaiter(hp, w) {
				// Already signaled: pass the wakeup on so the freed
				// capacity is not lost on an abandoned checkout.
				hp.signal()
			}
			p.mu.Unlock()
			return nil, checkoutAbort(op, ctx.Err())
		}
	}
}

func removeWaiter(hp *hostPool, w chan struct{}) bool {
	for i, q := range hp.waiters {
		if q == w {
			hp.waiters = append(hp.waiters[:i], hp.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// checkoutAbort classifies a checkout whose context ended while queued
// at the per-host cap: a deadline that passed during the wait means the
// pool could not produce a session in time (ErrPoolExhausted); an
// explicit cancel means the caller abandoned the wait
// (ErrContextClosed). Contexts that die before or outside the wait are
// always ErrContextClosed — exhaustion is only ever reported from the
// capacity queue.
func checkoutAbort(op string, err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Op: op, Kind: ErrPoolExhausted,
			Err: fmt.Errorf("gsi: no session became available before the deadline: %w", err)}
	}
	return &Error{Op: op, Kind: ErrContextClosed, Err: err}
}

// sessionHealthy runs the optional I/O-free health check.
func sessionHealthy(sess Session) bool {
	if h, ok := sess.(sessionHealth); ok {
		return h.Healthy()
	}
	return true
}

// probeSession runs the optional active probe under a bounded deadline.
func probeSession(ctx context.Context, sess Session) error {
	pr, ok := sess.(sessionProber)
	if !ok {
		return nil
	}
	probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	return pr.Probe(probeCtx)
}

// discard drops a checked-out slot, closing sess if non-nil, and wakes
// a waiter: used for failed dials, failed probes, and poisoned returns.
func (p *SessionPool) discard(key poolKey, sess Session) {
	p.mu.Lock()
	hp := p.host(key)
	hp.active--
	hp.signal()
	p.reapLocked(key, hp)
	p.mu.Unlock()
	if sess != nil {
		sess.Close()
	}
}

// RetireCredential rekeys the pool after a credential rotation: idle
// sessions established under old's leaf fingerprint are closed, the
// fingerprint is marked so sessions still checked out drain — they
// finish their in-flight exchange, then are discarded at return instead
// of parked — and old's secure-conversation resumption trees are
// invalidated so they can never seed new conversations. New checkouts
// are keyed by the successor's fingerprint and handshake fresh. A
// Client bound to a CredentialManager calls this automatically on
// rotation; call it directly when rotating credentials by hand over a
// shared pool.
func (p *SessionPool) RetireCredential(old *Credential) {
	if old == nil {
		return
	}
	p.retire(old.Leaf().Fingerprint(), old.Leaf().NotAfter)
}

// retire marks fp retired until the given time, closes the idle
// sessions parked under it and invalidates its resumption trees,
// reporting how many sessions it closed.
func (p *SessionPool) retire(fp [32]byte, until time.Time) int {
	p.mu.Lock()
	if !p.closed {
		if p.retired == nil {
			p.retired = make(map[[32]byte]time.Time)
		}
		// Once a retired credential's own NotAfter passes, no session
		// under it can be parked anyway — every context it
		// authenticated has expired (gss clamps context lifetime to the
		// credential) and fails the health check at release. Prune such
		// entries so a pool rotating for months stays bounded.
		now := time.Now()
		for oldFP, notAfter := range p.retired {
			if now.After(notAfter) {
				delete(p.retired, oldFP)
			}
		}
		p.retired[fp] = until
	}
	drained := p.drainIdleLocked(func(key poolKey) bool { return key.credential == fp })
	p.mu.Unlock()
	for _, sess := range drained {
		p.retiredSess.Add(1)
		sess.Close()
	}
	// Resumption-cache keys end in the credential fingerprint (see
	// poolKey.resumeScope), so a suffix match removes exactly the
	// retired credential's parent conversations.
	suffix := fmt.Sprintf("%x", fp)
	p.resume.InvalidateMatching(func(key string) bool {
		return strings.HasSuffix(key, suffix)
	})
	return len(drained)
}

// drainIdleLocked takes every idle session parked under a key that
// match accepts out of the pool, each one freeing capacity for a
// waiter. Callers hold the mutex and close the sessions once they have
// released it.
func (p *SessionPool) drainIdleLocked(match func(poolKey) bool) []Session {
	var drained []Session
	for key, hp := range p.hosts {
		if !match(key) {
			continue
		}
		for _, it := range hp.idle {
			drained = append(drained, it.sess)
			hp.signal()
		}
		hp.idle = nil
		p.reapLocked(key, hp)
	}
	return drained
}

// ResumptionStats is a snapshot of the pool's GT3 secure-conversation
// resumption cache (hits = conversations minted by cheap resumption,
// misses = full WS-Trust bootstraps).
type ResumptionStats = wssec.ResumptionStats

// ResumptionStats snapshots the pool's secure-conversation cache
// counters.
func (p *SessionPool) ResumptionStats() ResumptionStats {
	return p.resume.Stats()
}

// DrainIdle closes every parked idle session across all keys, counting
// each as an eviction, and reports how many were closed. Checked-out
// sessions are untouched; returning ones may park again. This is the
// admin surface's blunt instrument — after a trust or policy change an
// operator may want every future call to pay a fresh handshake under
// the new state.
func (p *SessionPool) DrainIdle() int {
	p.mu.Lock()
	drained := p.drainIdleLocked(func(poolKey) bool { return true })
	p.mu.Unlock()
	for _, sess := range drained {
		p.evictions.Add(1)
		sess.Close()
	}
	return len(drained)
}

// RetireFingerprint is RetireCredential for callers that hold only the
// credential's leaf fingerprint (hex, a unique prefix suffices) — the
// admin surface, where the rotated-away credential object is long gone.
// It drains the matching credential's idle sessions, marks the
// fingerprint retired so checked-out sessions are discarded as they
// return, and invalidates its secure-conversation resumption trees.
// An ambiguous prefix (matching several pooled credentials) is an
// error; a prefix matching nothing is an error unless it is a full
// 64-hex-digit fingerprint, which is retired preemptively. Lacking the
// credential's NotAfter, the retired mark is kept for 24h — beyond any
// context lifetime the pool could still be holding.
func (p *SessionPool) RetireFingerprint(prefix string) (drained int, err error) {
	prefix = strings.ToLower(strings.TrimSpace(prefix))
	if prefix == "" || len(prefix) > 64 {
		return 0, errors.New("gsi: fingerprint must be 1-64 hex digits")
	}
	for _, r := range prefix {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return 0, fmt.Errorf("gsi: fingerprint %q is not hex", prefix)
		}
	}
	var fp [32]byte
	found := false
	p.mu.Lock()
	for key := range p.hosts {
		if !strings.HasPrefix(fmt.Sprintf("%x", key.credential), prefix) {
			continue
		}
		if found && key.credential != fp {
			p.mu.Unlock()
			return 0, fmt.Errorf("gsi: fingerprint prefix %q is ambiguous", prefix)
		}
		fp = key.credential
		found = true
	}
	p.mu.Unlock()
	if !found {
		if len(prefix) != 64 {
			return 0, fmt.Errorf("gsi: no pooled credential matches fingerprint %q", prefix)
		}
		raw, decodeErr := hex.DecodeString(prefix)
		if decodeErr != nil {
			return 0, fmt.Errorf("gsi: fingerprint %q is not hex", prefix)
		}
		copy(fp[:], raw)
	}
	return p.retire(fp, time.Now().Add(24*time.Hour)), nil
}

// credentialRetired reports whether key's credential has been rotated
// away. Callers hold the mutex.
func (p *SessionPool) credentialRetired(key poolKey) bool {
	_, ok := p.retired[key.credential]
	return ok
}

// isClosed reports whether Close ran (rotation hooks prune themselves
// on closed pools).
func (p *SessionPool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// fingerprintRetired reports whether cred's leaf fingerprint has been
// rotated away (dials under it must skip the resumption cache).
func (p *SessionPool) fingerprintRetired(cred *Credential) bool {
	fp := cred.Leaf().Fingerprint()
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.retired[fp]
	return ok
}

// release returns a session to the idle pool, or closes it when the
// pool is closed, the session was poisoned, the session's credential
// was retired (rotation drain), or the idle cap is reached.
func (p *SessionPool) release(key poolKey, sess Session, poisoned bool) {
	if poisoned {
		p.poisoned.Add(1)
		p.discard(key, sess)
		return
	}
	p.mu.Lock()
	if p.credentialRetired(key) {
		p.mu.Unlock()
		p.retiredSess.Add(1)
		p.discard(key, sess)
		return
	}
	hp := p.host(key)
	hp.active--
	if p.closed || len(hp.idle) >= p.maxIdle || !sessionHealthy(sess) {
		hp.signal()
		p.reapLocked(key, hp)
		p.mu.Unlock()
		sess.Close()
		return
	}
	hp.idle = append(hp.idle, idleSession{sess: sess, since: time.Now()})
	hp.signal()
	p.mu.Unlock()
}

// pooledSession is the Session a pooled Connect hands out: Exchange
// delegates to the underlying session and watches for poisoning, and
// Close returns the session to the pool instead of tearing it down.
type pooledSession struct {
	pool     *SessionPool
	key      poolKey
	sess     Session
	reused   bool // satisfied from the idle pool (no handshake paid)
	released atomic.Bool
	poisoned atomic.Bool
}

func (ps *pooledSession) Exchange(ctx context.Context, op string, body []byte) ([]byte, error) {
	return ps.invoke(ctx, exchangeHandle, op, body)
}

// invoke forwards a request to handle through the underlying session
// (see exchangeAt), poisoning the checkout when the error leaves the
// channel unsafe to park.
func (ps *pooledSession) invoke(ctx context.Context, handle, op string, body []byte) ([]byte, error) {
	if ps.released.Load() {
		return nil, &Error{Op: "gsi.Session.Exchange", Err: errors.New("gsi: session already returned to pool")}
	}
	out, err := exchangeAt(ctx, ps.sess, handle, op, body)
	if sessionPoisoned(err) {
		// A cancellation that struck before any I/O leaves the channel
		// intact (the transports guarantee it); trust the session's own
		// health check there instead of discarding a good connection.
		ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if !ctxErr || !sessionHealthy(ps.sess) {
			ps.poisoned.Store(true)
		}
	}
	return out, err
}

// OpenStream opens a stream on the pooled session. The stream borrows
// the checkout: return the session (Close) only after the stream
// closes, and a stream that ends with the session unhealthy poisons it
// so the pool discards instead of parking.
func (ps *pooledSession) OpenStream(ctx context.Context, op string) (Stream, error) {
	if ps.released.Load() {
		return nil, &Error{Op: "gsi.Session.OpenStream", Err: errors.New("gsi: session already returned to pool")}
	}
	st, err := ps.sess.OpenStream(ctx, op)
	if err != nil {
		if sessionPoisoned(err) && !sessionHealthy(ps.sess) {
			ps.poisoned.Store(true)
		}
		return nil, err
	}
	return &pooledStream{Stream: st, ps: ps}, nil
}

// pooledStream watches a stream's end for session health so a pooled
// session never parks with a desynchronized record stream.
type pooledStream struct {
	Stream
	ps     *pooledSession
	closed atomic.Bool
}

func (p *pooledStream) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.Stream.Close()
	if !sessionHealthy(p.ps.sess) {
		p.ps.poisoned.Store(true)
	}
	return err
}

func (p *pooledStream) WriteTo(w io.Writer) (int64, error) { return writeTo(p.Stream, w) }

func (ps *pooledSession) Peer() Peer { return ps.sess.Peer() }

// Close returns the session to the pool (discarding it if poisoned).
// Closing twice is safe; only the first return counts.
func (ps *pooledSession) Close() error {
	if ps.released.Swap(true) {
		return nil
	}
	ps.pool.release(ps.key, ps.sess, ps.poisoned.Load())
	return nil
}

// sessionPoisoned decides whether an exchange error leaves the session
// unsafe to reuse. Errors the peer reported over an intact channel —
// remote statuses on GT2, application SOAP faults on GT3 — are benign;
// anything touching the channel itself (transport failures, interrupted
// frames, lapsed contexts) poisons the session so the pool evicts
// instead of re-parking it. A SOAP fault that reports the *secure
// conversation* dead — the server restarted or expired the context, so
// every future call on this session will fault the same way — poisons
// too, letting Client.Exchange recover on a fresh session.
func sessionPoisoned(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, errRemoteStatus) || errors.Is(err, ErrUnauthorized) || errors.Is(err, ErrNotFound) {
		return false
	}
	var fault *soap.Fault
	if errors.As(err, &fault) {
		return strings.Contains(fault.Reason, "security context") ||
			strings.Contains(fault.Reason, "wssec: unwrap")
	}
	return true
}
