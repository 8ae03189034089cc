package credman

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gridcert"
)

// Defaults for the renewal engine. The horizon follows the operational
// rule of thumb for short-lived grid proxies: start renewing with a
// quarter of a 12-hour proxy's typical working margin left, early
// enough that several retries fit before expiry.
const (
	// DefaultHorizon is how far before NotAfter renewal starts.
	DefaultHorizon = 15 * time.Minute
	// retryMin is the first retry backoff after a failed renewal.
	retryMin = time.Second
	// retryMax caps the exponential retry backoff.
	retryMax = time.Minute
)

// ErrClosed is returned by operations on a closed Manager.
var ErrClosed = errors.New("credman: manager closed")

// Config tunes a Manager.
type Config struct {
	// Source obtains successors. Required.
	Source Source
	// Horizon is how far before the credential's NotAfter the manager
	// starts renewing; 0 means DefaultHorizon. A horizon longer than
	// the credential's remaining lifetime renews immediately.
	Horizon time.Duration
	// Jitter desynchronizes fleets: each renewal fires up to Jitter
	// earlier than the horizon, uniformly at random. 0 disables.
	Jitter time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Stats is a snapshot of a Manager's activity.
type Stats struct {
	// Rotations counts successful credential replacements.
	Rotations uint64
	// Failures counts failed renewal attempts (each retried).
	Failures uint64
	// NotAfter is the managed credential's current expiry.
	NotAfter time.Time
}

// Manager keeps one credential alive: Current always returns a usable
// credential (fresh successors replace it atomically), Start runs the
// background renewal loop, and OnRotateWhile hooks let dependent state —
// session pools, resumption caches — rekey at the moment of rotation.
// Safe for concurrent use.
type Manager struct {
	cfg  Config
	now  func() time.Time
	rng  *rand.Rand
	cur  atomic.Pointer[gridcert.Credential]
	base context.Context // canceled by Close; bounds background renewals
	stop context.CancelFunc

	// The backoff bounds, retryMin and retryMax, as fields so that tests
	// can tighten them before Start.
	backoffMin, backoffMax time.Duration

	mu      sync.Mutex
	hooks   []*rotateHook
	started bool
	closed  bool
	done    chan struct{}
	renewMu sync.Mutex // serializes Renew (loop vs. explicit callers)

	rotations atomic.Uint64
	failures  atomic.Uint64
}

// NewManager builds a Manager over an initial credential. The manager
// is passive until Start; Renew works immediately.
func NewManager(initial *gridcert.Credential, cfg Config) (*Manager, error) {
	if initial == nil {
		return nil, errors.New("credman: manager requires an initial credential")
	}
	if cfg.Source == nil {
		return nil, errors.New("credman: manager requires a renewal source")
	}
	if cfg.Horizon < 0 || cfg.Jitter < 0 {
		return nil, errors.New("credman: negative duration")
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = DefaultHorizon
	}
	nowFn := cfg.Now
	if nowFn == nil {
		nowFn = time.Now
	}
	base, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		now:        nowFn,
		backoffMin: retryMin,
		backoffMax: retryMax,
		rng:        rand.New(rand.NewSource(nowFn().UnixNano())),
		base:       base,
		stop:       stop,
	}
	m.cur.Store(initial)
	return m, nil
}

// Current returns the managed credential (never nil).
func (m *Manager) Current() *gridcert.Credential { return m.cur.Load() }

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Rotations: m.rotations.Load(),
		Failures:  m.failures.Load(),
		NotAfter:  m.Current().Leaf().NotAfter,
	}
}

// rotateHook is one registered rotation hook; fn returning false marks
// it dead.
type rotateHook struct {
	fn func(old, next *gridcert.Credential) bool
}

// OnRotateWhile registers a hook called synchronously during each
// rotation with the replaced and the successor credential. Hooks run
// after the successor is validated but before it is published through
// Current, so dependent state (pool rekey, cache invalidation) is
// settled by the time any caller can observe the successor. Hooks must
// not call back into the Manager's renewal methods; Current still
// returns the replaced credential while they run. A hook returning
// false is removed and never called again. Rotation
// hooks cannot be unregistered from outside (the registrant may be long
// gone by the time the hook fires), so a hook watching state that can
// die — a session pool that may be closed — prunes itself instead of
// accumulating on a long-lived manager.
func (m *Manager) OnRotateWhile(fn func(old, next *gridcert.Credential) bool) {
	if fn == nil {
		return
	}
	m.mu.Lock()
	m.hooks = append(m.hooks, &rotateHook{fn: fn})
	m.mu.Unlock()
}

// Renew performs one renewal now: obtain a successor from the source,
// validate it, publish it, and run the rotation hooks. The successor is
// returned. Concurrent Renew calls serialize; the loser of the race
// still performs its own renewal (rotation is idempotent for users of
// Current).
func (m *Manager) Renew(ctx context.Context) (*gridcert.Credential, error) {
	m.renewMu.Lock()
	defer m.renewMu.Unlock()
	if err := m.base.Err(); err != nil {
		return nil, ErrClosed
	}
	old := m.Current()
	next, err := m.cfg.Source.Renew(ctx, old)
	if err != nil {
		m.failures.Add(1)
		return nil, err
	}
	if err := m.usable(next); err != nil {
		m.failures.Add(1)
		return nil, err
	}
	// Hooks first, publication second: by the time Current can return
	// the successor, the old credential's dependent state (pooled
	// sessions, resumption trees) is already rekeyed. Work racing the
	// rotation under the old credential is safe either way — its
	// sessions carry a retired fingerprint and drain at return.
	var hooks []*rotateHook
	m.mu.Lock()
	hooks = append(hooks, m.hooks...)
	m.mu.Unlock()
	dead := make(map[*rotateHook]bool)
	for _, h := range hooks {
		if !h.fn(old, next) {
			dead[h] = true
		}
	}
	m.cur.Store(next)
	m.rotations.Add(1)
	if len(dead) > 0 {
		m.mu.Lock()
		kept := m.hooks[:0]
		for _, h := range m.hooks {
			if !dead[h] {
				kept = append(kept, h)
			}
		}
		m.hooks = kept
		m.mu.Unlock()
	}
	return next, nil
}

// usable rejects successors that cannot carry traffic: nil, already
// expired, or not yet valid.
func (m *Manager) usable(next *gridcert.Credential) error {
	if next == nil {
		return errors.New("credman: source returned no credential")
	}
	now := m.now()
	leaf := next.Leaf()
	if now.After(leaf.NotAfter) {
		return fmt.Errorf("credman: source returned an expired credential (NotAfter %s)", leaf.NotAfter.Format(time.RFC3339))
	}
	if now.Before(leaf.NotBefore) {
		return fmt.Errorf("credman: source returned a not-yet-valid credential (NotBefore %s)", leaf.NotBefore.Format(time.RFC3339))
	}
	return nil
}

// Start launches the background renewal loop: sleep until the horizon
// (minus jitter) before the managed credential's expiry, renew with
// exponential backoff until a successor is published, repeat. Start is
// idempotent; Close stops the loop.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closed {
		return
	}
	m.started = true
	m.done = make(chan struct{})
	go m.run()
}

// Close stops the renewal loop and waits for it to exit. The managed
// credential remains readable through Current. Closing twice is safe.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	done := m.done
	m.mu.Unlock()
	m.stop()
	if done != nil {
		<-done
	}
	return nil
}

// renewIn computes how long the loop sleeps before renewing the given
// credential: until horizon (minus a random slice of jitter) before
// NotAfter, floored at zero for credentials already inside the window.
func (m *Manager) renewIn(cred *gridcert.Credential) time.Duration {
	at := cred.Leaf().NotAfter.Add(-m.cfg.Horizon)
	if m.cfg.Jitter > 0 {
		m.mu.Lock()
		j := time.Duration(m.rng.Int63n(int64(m.cfg.Jitter)))
		m.mu.Unlock()
		at = at.Add(-j)
	}
	d := at.Sub(m.now())
	if d < 0 {
		d = 0
	}
	return d
}

func (m *Manager) run() {
	defer close(m.done)
	renewed := false
	for {
		wait := m.renewIn(m.Current())
		if renewed && wait < m.backoffMin {
			// The freshly published successor is already inside the
			// renewal window (the source caps lifetimes below the
			// horizon). Renewing "immediately" forever would spin the
			// loop and hammer the source; pace it like a failure
			// instead.
			wait = m.backoffMin
		}
		timer := time.NewTimer(wait)
		select {
		case <-m.base.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		// Renew until a successor is published, backing off between
		// failures. The source sees the manager's lifetime as its
		// context, so Close aborts an in-flight attempt promptly.
		backoff := m.backoffMin
		for {
			if _, err := m.Renew(m.base); err == nil || errors.Is(err, ErrClosed) {
				renewed = true
				break
			}
			select {
			case <-m.base.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > m.backoffMax {
				backoff = m.backoffMax
			}
		}
		if m.base.Err() != nil {
			return
		}
	}
}
