package gsi

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authz"
	"repro/internal/cas"
	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/ogsa"
	"repro/internal/trace"
)

// AuditSink receives security-relevant events. secsvc.AuditLog — the
// paper's §4.1 audit service with its tamper-evident hash chain —
// implements it, as does any ogsa.AuditSink.
type AuditSink = ogsa.AuditSink

// AuthzDecision is one explained authorization outcome from an
// AuthorizationPipeline: the combined decision, its local and VO
// components, the authenticated identity and its gridmap account, and
// whether the answer came from the decision cache.
type AuthzDecision struct {
	// Decision is the effective outcome: Permit or Deny (the pipeline
	// never returns NotApplicable — an unmatched request denies).
	Decision Decision
	// Local and VO are the component decisions (VO is NotApplicable
	// when the peer presented no CAS assertion).
	Local Decision
	VO    Decision
	// Identity is the authenticated requester (end-entity DN).
	Identity Name
	// VOName is the community that issued the applied assertion (empty
	// without one).
	VOName Name
	// LocalAccount is the grid-mapfile account for the identity (empty
	// when the pipeline has no gridmap).
	LocalAccount string
	// Reason explains the decision for humans and audit trails.
	Reason string
	// Cached reports that the decision was served from the cache.
	Cached bool
}

// DefaultDecisionTTL bounds how long a cached authorization decision
// may be served without re-evaluation. Generation counters invalidate
// cached decisions immediately on policy, gridmap, VO-set, or
// trust-store mutation; the TTL is the backstop for state the counters
// cannot see (e.g. wall-clock movement across a rule's NotAfter).
const DefaultDecisionTTL = 30 * time.Second

// AuthorizationPipeline is the facade's policy decision point: the
// paper's §4.1 authorization service joined with Figure 2's resource
// rule ("the resource checks both local policy and the VO policy").
// For each exchange it takes the authenticated peer's verified chain,
// extracts and verifies any embedded CAS assertion, evaluates the
// intersection of VO and local policy with the peer's community
// groups/roles in scope, maps the identity through the grid-mapfile,
// and emits the decision to the audit sink. A sharded decision cache
// keyed by (credential fingerprint, resource, action, policy
// generations) makes the hot path one map lookup instead of chain
// crypto plus rule-list scans.
//
// Build one with Environment.NewAuthorizationPipeline and attach it to
// servers with WithAuthorizationPipeline, or let a Server assemble a
// private one from WithLocalPolicy/WithTrustedVO/WithGridMap options.
type AuthorizationPipeline struct {
	env     *Environment
	local   *Policy
	gridmap *GridMap
	audit   AuditSink
	cache   *decisionCache // nil when disabled
	// replica is the pulled CAS policy bundle (WithCASUpstream): when a
	// member arrives WITHOUT an assertion, the replica answers the VO's
	// half of the decision from the last applied bundle. nil = none.
	replica *cas.Replica
	// durable is the WAL-backed state the pipeline's policy/gridmap/audit
	// came from (WithDurableState); nil for in-memory pipelines.
	durable *DurableState

	mu    sync.RWMutex
	vos   map[string]*Certificate // trusted CAS signing certs by VO DN
	voGen uint64
}

// TraceAuditSink is the optional extension of AuditSink that carries
// the active trace id into the audit record. secsvc.AuditLog implements
// it — the id joins the hash chain, so the decision↔trace correlation
// is as tamper-evident as the decision itself.
type TraceAuditSink interface {
	AuditSink
	RecordTrace(event, subject, detail, traceID string)
}

// NewAuthorizationPipeline builds a standalone pipeline from the
// environment's trust roots and clock plus the pipeline options
// (WithLocalPolicy, WithTrustedVO, WithGridMap, WithDecisionCache,
// WithAuditSink). Without WithLocalPolicy the pipeline denies
// everything: resources are closed-world, so policy must be stated.
func (e *Environment) NewAuthorizationPipeline(opts ...Option) (*AuthorizationPipeline, error) {
	var s settings
	if err := s.apply(opts); err != nil {
		return nil, opErr("gsi.NewAuthorizationPipeline", err)
	}
	if s.authzAdopted {
		// Accepting it silently would discard the prebuilt pipeline and
		// hand back a policy-less deny-all one — the same trap NewServer
		// refuses loudly.
		return nil, opErr("gsi.NewAuthorizationPipeline", errors.New("gsi: WithAuthorizationPipeline is a server option; NewAuthorizationPipeline builds pipelines from assembly options"))
	}
	if err := s.materializeDurable(); err != nil {
		return nil, opErr("gsi.NewAuthorizationPipeline", err)
	}
	return newPipeline(e, &s), nil
}

// newPipeline assembles a pipeline from resolved settings.
func newPipeline(e *Environment, s *settings) *AuthorizationPipeline {
	p := &AuthorizationPipeline{
		env:     e,
		local:   s.authzLocal,
		gridmap: s.authzGridMap,
		audit:   s.authzAudit,
		durable: s.durable,
		vos:     make(map[string]*Certificate),
	}
	ttl := DefaultDecisionTTL
	if s.authzTTLSet {
		ttl = s.authzTTL
	}
	if ttl > 0 {
		p.cache = newDecisionCache(ttl)
	}
	for _, cert := range s.authzVOs {
		p.vos[cert.Subject.String()] = cert
	}
	if s.casUpstream != nil {
		p.replica = cas.NewReplica(s.casUpstream.Cert)
		// Bundles from the upstream VO are as trusted as assertions it
		// signs: pulling implies trusting.
		p.vos[s.casUpstream.Cert.Subject.String()] = s.casUpstream.Cert
	}
	return p
}

// Replica returns the pipeline's CAS bundle replica (nil unless
// WithCASUpstream configured one).
func (p *AuthorizationPipeline) Replica() *cas.Replica { return p.replica }

// DurableState returns the WAL-backed state the pipeline was assembled
// over (nil for in-memory pipelines).
func (p *AuthorizationPipeline) DurableState() *DurableState { return p.durable }

// auditLog returns the pipeline's sink when it is an audit log, whose
// journal can drop events (nil otherwise, and for a nil pipeline).
func (p *AuthorizationPipeline) auditLog() *AuditLog {
	if p == nil {
		return nil
	}
	log, _ := p.audit.(*AuditLog)
	return log
}

// DistrustVO removes a community's signing certificate; assertions it
// issued stop being honored on the very next exchange.
func (p *AuthorizationPipeline) DistrustVO(vo Name) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.vos, vo.String())
	p.voGen++
}

func (p *AuthorizationPipeline) trustedVO(vo Name) (*Certificate, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	cert, ok := p.vos[vo.String()]
	return cert, ok
}

// LocalPolicy returns the pipeline's local policy (nil when none was
// configured; such a pipeline denies everything).
func (p *AuthorizationPipeline) LocalPolicy() *Policy { return p.local }

// GridMap returns the pipeline's grid-mapfile (nil when none).
func (p *AuthorizationPipeline) GridMap() *GridMap { return p.gridmap }

// CacheStats reports decision-cache effectiveness; the zero value when
// the cache is disabled.
func (p *AuthorizationPipeline) CacheStats() DecisionCacheStats {
	if p.cache == nil {
		return DecisionCacheStats{}
	}
	return p.cache.stats()
}

// generations snapshots every counter a cached decision depends on.
func (p *AuthorizationPipeline) generations() [5]uint64 {
	var g [5]uint64
	if p.local != nil {
		g[0] = p.local.Generation()
	}
	if p.gridmap != nil {
		g[1] = p.gridmap.Generation()
	}
	p.mu.RLock()
	g[2] = p.voGen
	p.mu.RUnlock()
	g[3] = p.env.trust.Generation()
	if p.replica != nil {
		// Each applied bundle bumps the replica generation, so decisions
		// computed under the previous bundle stop being addressable.
		g[4] = p.replica.Generation()
	}
	return g
}

// Authorize runs the pipeline for one request: may the authenticated
// peer perform action on resource? The returned error is non-nil only
// for infrastructure failures (context ended, chain rejected); a clean
// policy deny is reported in AuthzDecision.Decision with a nil error.
// Every decision — cached or cold — is recorded to the audit sink.
func (p *AuthorizationPipeline) Authorize(ctx context.Context, peer Peer, resource, action string) (AuthzDecision, error) {
	if err := ctx.Err(); err != nil {
		// Audited like every other deny: the caller observed a refusal,
		// so the refusal must be in the trail.
		d, _ := p.finish(ctx, AuthzDecision{Decision: Deny, Reason: "request context ended"}, resource, action)
		return d, err
	}
	if peer.Anonymous {
		return p.finish(ctx, AuthzDecision{Decision: Deny, Reason: "anonymous peers are never authorized"}, resource, action)
	}
	leaf := peerLeaf(peer)
	if leaf == nil {
		return p.finish(ctx, AuthzDecision{Decision: Deny, Reason: "peer presented no certificate chain"}, resource, action)
	}
	now := p.env.Now()
	gens := p.generations()
	key := decisionKey{fp: leaf.Fingerprint(), resource: resource, action: action, gens: gens}
	if p.cache != nil {
		if d, ok := p.cache.lookup(key, now); ok {
			d.Cached = true
			return p.finish(ctx, d, resource, action)
		}
	}
	d, expiry, err := p.evaluate(peer, leaf, resource, action, now)
	if err != nil {
		d, _ = p.finish(ctx, d, resource, action)
		return d, err
	}
	if p.cache != nil {
		p.cache.store(key, d, expiry, now)
	}
	return p.finish(ctx, d, resource, action)
}

// finish records the decision to the audit sink and returns it. When
// the sink understands trace ids and the context carries an active
// span, the trace id is recorded — and hash-chained — with the event.
func (p *AuthorizationPipeline) finish(ctx context.Context, d AuthzDecision, resource, action string) (AuthzDecision, error) {
	if p.audit != nil {
		detail := fmt.Sprintf("%s %s: %s", action, resource, d.Reason)
		if d.Cached {
			detail += " (cached)"
		}
		event := "authz-" + d.Decision.String()
		if ts, ok := p.audit.(TraceAuditSink); ok {
			if span := trace.SpanFromContext(ctx); span != nil {
				if sc := span.Context(); sc.Valid() {
					ts.RecordTrace(event, d.Identity.String(), detail, sc.TraceID.String())
					return d, nil
				}
			}
		}
		p.audit.Record(event, d.Identity.String(), detail)
	}
	return d, nil
}

// peerLeaf picks the certificate that keys per-credential caches.
func peerLeaf(peer Peer) *Certificate {
	if len(peer.Chain) > 0 {
		return peer.Chain[0]
	}
	if peer.Info != nil {
		return peer.Info.Leaf
	}
	return nil
}

// evaluate is the cold path: full chain validation (skipped when the
// transport already did it), CAS assertion verification, VO ∩ local
// policy, gridmap mapping. It returns the decision and the instant it
// may be cached until.
func (p *AuthorizationPipeline) evaluate(peer Peer, leaf *Certificate, resource, action string, now time.Time) (AuthzDecision, time.Time, error) {
	expiry := now.Add(p.cacheTTL())
	// The chain bounds every cached decision: a permit must never
	// outlive the credential it was granted to.
	if notAfter := chainNotAfter(peer, leaf); notAfter.Before(expiry) {
		expiry = notAfter
	}

	info := peer.Info
	if len(peer.Chain) > 0 {
		// Re-validate even when the handshake already did: the peer's
		// Info was computed at connect time, and a long-lived session
		// must not keep a credential alive across a CRL or root removal.
		// Every rule runs again here (the store remembers only which link
		// signatures verified), so revocation bites on the next exchange,
		// not at reconnect.
		var err error
		info, err = p.env.trust.Verify(peer.Chain, gridcert.VerifyOptions{Now: now})
		if err != nil {
			return AuthzDecision{Decision: Deny, Reason: "authentication failed"}, expiry, err
		}
	} else if info == nil {
		return AuthzDecision{Decision: Deny, Reason: "peer presented no certificate chain"}, expiry, nil
	}
	d := AuthzDecision{Identity: info.Identity, VO: NotApplicable}
	// The environment clock rides on every rule evaluation, so
	// time-bounded rules are testable under WithClock and consistent
	// with chain validation (no time.Now fallback inside the engine).
	req := authz.Request{Subject: info.Identity, Resource: resource, Action: action, Time: now}

	// Assertion handling is the enforcer's exact logic (cas.CheckAssertion
	// is shared, so the two paths cannot drift): absent falls back to
	// local policy; present-but-unusable denies outright.
	assertion, reason, aerr := cas.CheckAssertion(info, p.trustedVO, now)
	if reason != "" {
		d.Decision = Deny
		d.Reason = reason
		if aerr != nil {
			// Keep the root cause in the decision (and thus the audit
			// trail): "invalid assertion" without the decode/signature
			// detail is undebuggable for the community that issued it.
			d.Reason = reason + ": " + aerr.Error()
		}
		return d, expiry, nil
	}

	// The VO layer comes from the assertion when one was presented, or —
	// for members that arrive bare — from the replicated policy bundle
	// pulled from the community server. Either way the intersection rule
	// is the same: both layers must permit.
	voLayer := false
	if assertion != nil {
		voLayer = true
		d.VOName = assertion.VO
		// Verified community attributes flow into the request: local
		// policy may reference VO groups and roles.
		req.Groups = assertion.Groups
		req.Roles = assertion.Roles
		voPolicy := authz.NewPolicy(authz.DenyOverrides)
		if err := voPolicy.AddChecked(assertion.Rules...); err != nil {
			d.Decision = Deny
			d.Reason = "assertion carries a rule with an invalid effect"
			return d, expiry, nil
		}
		d.VO = voPolicy.Evaluate(req)
		// A cached grant must not outlive the assertion that backs it.
		if assertion.ExpiresAt.Before(expiry) {
			expiry = assertion.ExpiresAt
		}
	} else if p.replica != nil {
		if groups, roles, ok := p.replica.Lookup(info.Identity); ok {
			voLayer = true
			d.VOName = p.replica.VO()
			req.Groups = groups
			req.Roles = roles
			d.VO = p.replica.Evaluate(req)
		}
		// A non-member falls through to local policy alone — the bundle
		// vouches for members only; it never blocks identities the VO
		// has nothing to say about.
	}

	if p.local != nil {
		d.Local = p.local.Evaluate(req)
	} else {
		d.Local = NotApplicable
	}

	if voLayer {
		// Figure 2 step 3: the intersection — both layers must permit.
		d.Decision = authz.Combine(d.Local, d.VO)
		if d.Decision != Permit {
			d.Decision = Deny
			d.Reason = fmt.Sprintf("intersection of local (%s) and VO (%s) policy", d.Local, d.VO)
		} else if assertion != nil {
			d.Reason = "permitted by local ∩ VO policy"
		} else {
			d.Reason = "permitted by local ∩ replicated VO policy"
		}
	} else {
		d.Decision = d.Local
		if d.Decision != Permit {
			d.Decision = Deny
			d.Reason = "no CAS assertion and local policy does not permit"
		} else {
			d.Reason = "permitted by local policy alone"
		}
	}

	// Grid-mapfile mapping (paper §5.3 step 3): a permitted requester
	// with no local account cannot be served — fail closed.
	if d.Decision == Permit && p.gridmap != nil {
		account, ok := p.gridmap.Lookup(info.Identity)
		if !ok {
			d.Decision = Deny
			d.Reason = fmt.Sprintf("no gridmap entry for %q", info.Identity)
			return d, expiry, nil
		}
		d.LocalAccount = account
	}
	return d, expiry, nil
}

func (p *AuthorizationPipeline) cacheTTL() time.Duration {
	if p.cache != nil {
		return p.cache.ttl
	}
	return DefaultDecisionTTL
}

// chainNotAfter returns the earliest NotAfter across the peer's chain
// (or the leaf's alone when only validation info is at hand).
func chainNotAfter(peer Peer, leaf *Certificate) time.Time {
	notAfter := leaf.NotAfter
	for _, c := range peer.Chain {
		if c.NotAfter.Before(notAfter) {
			notAfter = c.NotAfter
		}
	}
	return notAfter
}

// AuthorizeChain implements ogsa.ChainAuthorizer, adapting the pipeline
// to the container's Figure-3 step-5 hook: a non-Permit decision comes
// back as an ErrUnauthorized-classified error.
func (p *AuthorizationPipeline) AuthorizeChain(ctx context.Context, peer gss.Peer, resource, action string) (string, error) {
	d, err := p.Authorize(ctx, peer, resource, action)
	if err != nil {
		return "", err
	}
	if d.Decision != Permit {
		return "", &Error{
			Op:   "gsi.AuthorizationPipeline",
			Kind: ErrUnauthorized,
			Err:  fmt.Errorf("gsi: %q denied %s on %s: %s", d.Identity, action, resource, d.Reason),
		}
	}
	return d.LocalAccount, nil
}

var _ ogsa.ChainAuthorizer = (*AuthorizationPipeline)(nil)

// --- the sharded decision cache ----------------------------------------

const decisionShardCount = 16

// decisionShardCap bounds entries per shard; overflow evicts an
// arbitrary victim (the cache is a performance aid, not a registry).
const decisionShardCap = 4096

type decisionKey struct {
	fp       [32]byte
	resource string
	action   string
	// gens pins the key to the exact policy state the decision was
	// computed under: local policy, gridmap, trusted-VO set, trust
	// store, and CAS bundle replica. Any mutation bumps a counter, so
	// stale entries simply stop being addressable — invalidation
	// without a sweep.
	gens [5]uint64
}

// decisionEntry is immutable once stored, so a lookup reads it outside
// the shard lock.
type decisionEntry struct {
	d      AuthzDecision
	expiry time.Time
}

type decisionShard struct {
	mu   sync.RWMutex
	m    map[decisionKey]*decisionEntry
	gens [5]uint64 // the generations every entry in m was computed under
}

// decisionCache is the per-pipeline decision memo: sharded by key hash
// so concurrent exchanges from many peers do not serialize on one lock.
type decisionCache struct {
	ttl    time.Duration
	shards [decisionShardCount]decisionShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// DecisionCacheStats reports decision-cache effectiveness. MaxShard is
// the fullest shard's entry count — shard pressure: Len near
// shards×capacity with MaxShard at capacity means evictions are
// displacing live decisions.
type DecisionCacheStats struct {
	Hits     uint64
	Misses   uint64
	Len      int
	MaxShard int
}

func newDecisionCache(ttl time.Duration) *decisionCache {
	c := &decisionCache{ttl: ttl}
	for i := range c.shards {
		c.shards[i].m = make(map[decisionKey]*decisionEntry)
	}
	return c
}

func (c *decisionCache) shard(key decisionKey) *decisionShard {
	h := fnv.New32a()
	h.Write(key.fp[:8])
	h.Write([]byte(key.resource))
	h.Write([]byte(key.action))
	return &c.shards[h.Sum32()%decisionShardCount]
}

func (c *decisionCache) lookup(key decisionKey, now time.Time) (AuthzDecision, bool) {
	s := c.shard(key)
	s.mu.RLock()
	e, ok := s.m[key]
	s.mu.RUnlock()
	if ok && now.After(e.expiry) {
		// Reap in place so dead entries do not sit at a shard's cap
		// crowding out live ones.
		s.mu.Lock()
		if e2, still := s.m[key]; still && now.After(e2.expiry) {
			delete(s.m, key)
		}
		s.mu.Unlock()
		ok = false
	}
	if !ok {
		c.misses.Add(1)
		return AuthzDecision{}, false
	}
	c.hits.Add(1)
	return e.d, true
}

// evictionScan bounds how many entries a full shard examines looking
// for a dead victim before giving up and evicting arbitrarily.
const evictionScan = 32

// makeRoomLocked readies the shard for key; the caller holds s.mu.
// Generations only move forward, so once the trust state has changed
// nothing the shard holds can be looked up again: the first key of a new
// generation vector empties it. Past that, it frees one slot when the
// shard is at cap and key is not already present, preferring an entry
// past its TTL; only a shard full of live entries sacrifices an
// arbitrary one.
func (s *decisionShard) makeRoomLocked(key decisionKey, now time.Time) {
	if key.gens != s.gens {
		clear(s.m)
		s.gens = key.gens
	}
	if _, exists := s.m[key]; exists || len(s.m) < decisionShardCap {
		return
	}
	var fallback decisionKey
	haveFallback, evicted := false, false
	scanned := 0
	for k, e := range s.m {
		if now.After(e.expiry) {
			delete(s.m, k)
			evicted = true
			break
		}
		if !haveFallback {
			fallback, haveFallback = k, true
		}
		if scanned++; scanned >= evictionScan {
			break
		}
	}
	if !evicted && haveFallback {
		delete(s.m, fallback)
	}
}

func (c *decisionCache) store(key decisionKey, d AuthzDecision, expiry time.Time, now time.Time) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.makeRoomLocked(key, now)
	s.m[key] = &decisionEntry{d: d, expiry: expiry}
}

func (c *decisionCache) stats() DecisionCacheStats {
	st := DecisionCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n := len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
		st.Len += n
		if n > st.MaxShard {
			st.MaxShard = n
		}
	}
	return st
}
