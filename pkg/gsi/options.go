package gsi

import (
	"errors"
	"time"

	"repro/internal/gss"
)

// ProtectionLevel selects the message-protection mechanism a client
// requests — the two GT3 mechanisms of the paper's §4.4, which the GT2
// transport maps onto its record protection.
type ProtectionLevel int

const (
	// ProtectionPrivate establishes a security context and encrypts every
	// message under it (WS-SecureConversation on GT3, wrapped records on
	// GT2). Amortizes the handshake across calls; the default.
	ProtectionPrivate ProtectionLevel = iota
	// ProtectionSigned signs each message independently with the caller's
	// credential (per-message XML signature on GT3). Stateless: no
	// handshake, but every message pays a signature. GT2 — whose
	// transport always establishes a context — treats it as
	// ProtectionPrivate.
	ProtectionSigned
)

// String names the protection level.
func (p ProtectionLevel) String() string {
	switch p {
	case ProtectionPrivate:
		return "private"
	case ProtectionSigned:
		return "signed"
	default:
		return "unknown"
	}
}

// settings is the resolved option set of one handle — a Client, Server,
// SessionPool, CredentialManager or AuthorizationPipeline.
// Options compose left to right and are applied once, by the handle's
// constructor.
type settings struct {
	transport     Transport
	protection    ProtectionLevel
	delegation    bool
	rejectLimited bool
	expectedPeer  Name

	// Session pooling. poolEnable is set by any pool option; NewClient
	// then creates a private pool unless one was adopted explicitly.
	pool           *SessionPool
	poolEnable     bool
	poolMaxIdle    int           // 0 = DefaultMaxIdle
	poolIdleTTL    time.Duration // 0 = DefaultIdleTTL
	poolMaxPerHost int           // 0 = DefaultMaxConcurrentPerHost, < 0 = unlimited

	// streamHandler receives streams opened by peers (Server option).
	streamHandler StreamHandler

	// Credential lifecycle. credman makes a Client's credential dynamic;
	// the renew* knobs tune a CredentialManager under construction.
	credman       *CredentialManager
	renewHorizon  time.Duration // 0 = credman.DefaultHorizon
	renewJitter   time.Duration
	renewRetryMin time.Duration
	renewRetryMax time.Duration

	// Authorization pipeline. authzPipeline adopts a prebuilt pipeline;
	// the authz* fields assemble a private one (the enforcement options
	// also set authzEnabled so servers know to build it).
	authzPipeline *AuthorizationPipeline
	authzAdopted  bool // authzPipeline came from WithAuthorizationPipeline
	authzEnabled  bool
	authzLocal    *Policy
	authzVOs      []*Certificate
	authzGridMap  *GridMap
	authzTTL      time.Duration
	authzTTLSet   bool
	authzAudit    AuditSink
	authzAuditOff bool // WithoutDecisionAudit: durable audit not auto-wired

	// Observability & control plane (PR 6). metrics is the registry
	// instruments land in; metricsAddr optionally exposes it (plus
	// /healthz) over plaintext HTTP for Prometheus scrapes. reloadCfg
	// watches trust/policy files; adminEnable publishes the gsi.__admin
	// port type on GT3 endpoints, acting on adminPool when set.
	metrics     *MetricsRegistry
	metricsAddr string
	reloadCfg   *ReloadConfig
	adminEnable bool
	adminPool   *SessionPool

	// Durable trust plane (PR 9). durableDir roots the WAL-backed
	// policy/gridmap/audit stores; durable is the opened state (handle
	// construction materializes it). casUpstream configures the pulled
	// policy-bundle replica; casPublish exports a community server's
	// bundle feed on the endpoint's container.
	durableDir  string
	durable     *DurableState
	casUpstream *CASUpstreamConfig
	casPublish  *CASServer

	// End-to-end tracing (PR 8). traceEnable is set by WithTracing;
	// NewClient/NewServer then materialize tracer (per-op histograms land
	// in metrics when both are set).
	traceEnable bool
	tracer      *Tracer
}

// Option configures a handle, once, at its constructor (NewClient,
// NewServer, NewSessionPool, NewCredentialManager,
// NewAuthorizationPipeline); the handle's methods take none. Options that
// do not apply to a given handle or operation (e.g. WithTransport on the
// in-memory Establish) are ignored by it; the GSS options apply
// everywhere a handshake exists.
type Option func(*settings) error

// WithTransport selects how sessions reach peers: TransportGT2 (the
// raw-socket GT2 protocol) or TransportGT3 (SOAP over HTTP). Callers
// pick transport by option, never by function name.
func WithTransport(t Transport) Option {
	return func(s *settings) error {
		if t == nil {
			return errors.New("gsi: nil transport")
		}
		s.transport = t
		return nil
	}
}

// WithMessageProtection selects the protection mechanism for sessions.
func WithMessageProtection(level ProtectionLevel) Option {
	return func(s *settings) error {
		if level != ProtectionPrivate && level != ProtectionSigned {
			return errors.New("gsi: unknown protection level")
		}
		s.protection = level
		return nil
	}
}

// WithDelegation announces the intent to delegate a proxy credential to
// the peer immediately after establishment (sets the GSS delegation
// flag, so the acceptor can prepare).
func WithDelegation() Option {
	return func(s *settings) error {
		s.delegation = true
		return nil
	}
}

// WithRejectLimited refuses peers that authenticate with limited proxy
// credentials (the GSI job-initiation rule).
func WithRejectLimited() Option {
	return func(s *settings) error {
		s.rejectLimited = true
		return nil
	}
}

// WithExpectedPeer requires the peer's grid identity (its end-entity
// subject, regardless of proxying) to equal name.
func WithExpectedPeer(name Name) Option {
	return func(s *settings) error {
		s.expectedPeer = name
		return nil
	}
}

// WithSessionPool enables session pooling on a Client: Connect checks
// sessions out of the pool and Session.Close returns them for reuse, so
// the public-key handshake is paid once per pooled connection instead
// of once per call (the paper's WS-SecureConversation amortization
// argument). Passing nil gives the client a private pool built from the
// other pool options; passing a pool built with NewSessionPool shares
// it — sessions are keyed by (endpoint, transport, protection,
// delegation, credential), so clients with different credentials never
// receive each other's sessions.
func WithSessionPool(p *SessionPool) Option {
	return func(s *settings) error {
		s.pool = p
		s.poolEnable = true
		return nil
	}
}

// WithMaxIdle caps the idle sessions the pool parks per key (omit for
// DefaultMaxIdle; a pool always parks at least one). Implies pooling.
func WithMaxIdle(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return errors.New("gsi: max idle must be positive")
		}
		s.poolMaxIdle = n
		s.poolEnable = true
		return nil
	}
}

// WithIdleTTL bounds how long an idle session may sit parked before the
// pool discards it instead of reusing it (omit for DefaultIdleTTL).
// Implies pooling.
func WithIdleTTL(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return errors.New("gsi: idle TTL must be positive")
		}
		s.poolIdleTTL = d
		s.poolEnable = true
		return nil
	}
}

// WithMaxConcurrentPerHost caps live sessions (checked out plus idle)
// per pool key; checkouts beyond the cap wait for a return until their
// context ends (default DefaultMaxConcurrentPerHost; negative removes
// the cap). Implies pooling.
func WithMaxConcurrentPerHost(n int) Option {
	return func(s *settings) error {
		if n == 0 {
			return errors.New("gsi: zero concurrent-per-host cap")
		}
		s.poolMaxPerHost = n
		s.poolEnable = true
		return nil
	}
}

// WithStreamHandler installs the server-side receiver for streams
// peers open with Session.OpenStream: bulk transfers cross as chunk
// records through the pooled record layer instead of one monolithic
// message, so their size is unbounded. The stream's op is authorized
// once — through the authorization pipeline when one is configured —
// before the handler sees the stream. Endpoints without a stream
// handler refuse stream opens. Streams ride GT2 sessions only: NewServer
// refuses a stream handler on the GT3 transport.
func WithStreamHandler(h StreamHandler) Option {
	return func(s *settings) error {
		if h == nil {
			return errors.New("gsi: nil stream handler")
		}
		s.streamHandler = h
		return nil
	}
}

// WithCredentialManager binds a Client to a CredentialManager: the
// client's credential becomes dynamic — every Connect/Exchange reads
// the manager's current credential, so a rotation is picked up by the
// very next call with no coordination. On a pooling client the pool is
// additionally rekeyed at each rotation: idle sessions under the
// replaced credential are drained, its secure-conversation resumption
// trees are invalidated, and returning sessions are discarded instead
// of parked, while new checkouts handshake under the successor.
func WithCredentialManager(cm *CredentialManager) Option {
	return func(s *settings) error {
		if cm == nil {
			return errors.New("gsi: nil credential manager")
		}
		s.credman = cm
		return nil
	}
}

// WithRenewalHorizon sets how far before the managed credential's
// NotAfter a CredentialManager starts renewing (NewCredentialManager
// option; 0 means the package default).
func WithRenewalHorizon(d time.Duration) Option {
	return func(s *settings) error {
		if d < 0 {
			return errors.New("gsi: negative renewal horizon")
		}
		s.renewHorizon = d
		return nil
	}
}

// WithRenewalJitter desynchronizes renewal across a fleet: each renewal
// fires up to d earlier than the horizon, uniformly at random
// (NewCredentialManager option).
func WithRenewalJitter(d time.Duration) Option {
	return func(s *settings) error {
		if d < 0 {
			return errors.New("gsi: negative renewal jitter")
		}
		s.renewJitter = d
		return nil
	}
}

// WithRenewalRetry bounds the exponential backoff between failed
// renewal attempts (NewCredentialManager option; zeros mean the
// package defaults).
func WithRenewalRetry(min, max time.Duration) Option {
	return func(s *settings) error {
		if min < 0 || max < 0 {
			return errors.New("gsi: negative renewal retry bound")
		}
		if max > 0 && min > max {
			return errors.New("gsi: renewal retry min exceeds max")
		}
		s.renewRetryMin = min
		s.renewRetryMax = max
		return nil
	}
}

// WithAuthorizationPipeline attaches a prebuilt chain-aware
// authorization pipeline (Environment.NewAuthorizationPipeline) to a
// Server: every exchange on both transports passes through it before
// the handler runs, and its decision cache and audit trail are shared
// across all endpoints the server opens. Combining it with the
// assembly/tuning options below is an error — the pipeline's policy
// lives inside the pipeline object, so those options could only be
// dropped or misapplied; build the desired variant up front instead.
func WithAuthorizationPipeline(p *AuthorizationPipeline) Option {
	return func(s *settings) error {
		if p == nil {
			return errors.New("gsi: nil authorization pipeline")
		}
		s.authzPipeline = p
		s.authzAdopted = true
		s.authzEnabled = true
		return nil
	}
}

// WithLocalPolicy sets the resource's own policy for the authorization
// pipeline a Server assembles (or Environment.NewAuthorizationPipeline
// builds). Local policy must permit explicitly: a pipeline without one
// denies every exchange.
func WithLocalPolicy(p *Policy) Option {
	return func(s *settings) error {
		if p == nil {
			return errors.New("gsi: nil local policy")
		}
		s.authzLocal = p
		s.authzEnabled = true
		return nil
	}
}

// WithTrustedVO registers community authorization servers whose signed
// assertions the pipeline honors: requests carrying a valid assertion
// from one of these VOs are decided by the intersection of the VO's
// policy and local policy (Figure 2 step 3).
func WithTrustedVO(certs ...*Certificate) Option {
	return func(s *settings) error {
		for _, c := range certs {
			if c == nil {
				return errors.New("gsi: nil VO certificate")
			}
		}
		s.authzVOs = append(s.authzVOs, certs...)
		s.authzEnabled = true
		return nil
	}
}

// WithGridMap installs the grid-mapfile the pipeline maps authorized
// identities through (paper §5.3 step 3); the resulting local account
// is exposed to handlers as Peer.LocalAccount. A permitted requester
// with no entry is denied — the mapping is part of the decision.
func WithGridMap(gm *GridMap) Option {
	return func(s *settings) error {
		if gm == nil {
			return errors.New("gsi: nil gridmap")
		}
		s.authzGridMap = gm
		s.authzEnabled = true
		return nil
	}
}

// WithDurableState roots the server's trust-plane state in dir: the
// authorization pipeline's policy, gridmap, and audit chain journal
// every mutation through a write-ahead log there (fsync before apply),
// and a restarted server replays the log to resume with identical
// state AND identical generation counters — so the decision cache
// re-warms instead of stampeding, and the audit hash chain is
// re-verified end to end. The durable objects replace WithLocalPolicy /
// WithGridMap (combining them is an error: two sources of truth for one
// policy); mutate them through Server.DurableState.
func WithDurableState(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return errors.New("gsi: empty durable state directory")
		}
		s.durableDir = dir
		s.authzEnabled = true
		return nil
	}
}

// CASUpstreamConfig points a resource server at its community server's
// bundle feed (the gsi.__cas.sync port type).
type CASUpstreamConfig struct {
	// Endpoints are the community server addresses, tried in order each
	// sync — the second entry is the standby; a mid-run failover is one
	// failed pull followed by a successful one against the next entry.
	Endpoints []string
	// Cert is the VO's CAS signing certificate; bundles that do not
	// verify against it are rejected and the previous bundle stays live.
	Cert *Certificate
	// Interval is the pull period (0 = DefaultCASSyncInterval).
	Interval time.Duration
}

// WithCASUpstream attaches a pulled CAS policy-bundle replica to the
// server's pipeline: members of the VO that arrive WITHOUT a CAS
// assertion are decided by the intersection of local policy and the
// replicated VO policy, exactly as an assertion would be. Application
// is fail-closed and generation-counted — a bundle with a bad signature
// or stale version leaves the previous bundle live. The control plane
// pulls from Endpoints in order at Interval while an endpoint is open.
// Server option.
func WithCASUpstream(cfg CASUpstreamConfig) Option {
	return func(s *settings) error {
		if len(cfg.Endpoints) == 0 {
			return errors.New("gsi: CAS upstream names no endpoints")
		}
		if cfg.Cert == nil {
			return errors.New("gsi: CAS upstream requires the VO's signing certificate")
		}
		if cfg.Interval < 0 {
			return errors.New("gsi: negative CAS sync interval")
		}
		c := cfg
		c.Endpoints = append([]string(nil), cfg.Endpoints...)
		s.casUpstream = &c
		s.authzEnabled = true
		return nil
	}
}

// WithCASPublisher publishes server's signed policy-bundle feed under
// the reserved handle gsi.__cas.sync on the endpoint's container, for
// resource servers configured with WithCASUpstream to pull. Requires
// TransportGT3 and an authorization pipeline — which resource servers
// may read the VO's membership roll is itself policy. Server option.
func WithCASPublisher(server *CASServer) Option {
	return func(s *settings) error {
		if server == nil {
			return errors.New("gsi: nil CAS server")
		}
		s.casPublish = server
		return nil
	}
}

// WithDecisionCache tunes the pipeline's decision cache: ttl bounds how
// long a decision may be served without re-evaluation (policy, gridmap,
// VO-set, and trust-store mutations invalidate immediately regardless,
// via generation counters). ttl = 0 disables caching — every exchange
// pays the full evaluation. Omitting the option keeps the cache at
// DefaultDecisionTTL. Tuning alone does not create a pipeline: on a
// server it takes effect only alongside an enforcement option
// (WithLocalPolicy, WithTrustedVO, WithGridMap) — a cache with no
// policy would be a deny-everything trap.
func WithDecisionCache(ttl time.Duration) Option {
	return func(s *settings) error {
		if ttl < 0 {
			return errors.New("gsi: negative decision-cache TTL")
		}
		s.authzTTL = ttl
		s.authzTTLSet = true
		return nil
	}
}

// WithAuditSink directs every pipeline decision — permit and deny,
// cached and cold — to sink. Pass a secsvc.AuditLog to land decisions
// in the tamper-evident hash chain of the paper's audit service.
// Observability alone does not create a pipeline: on a server it takes
// effect only alongside an enforcement option (WithLocalPolicy,
// WithTrustedVO, WithGridMap).
func WithAuditSink(sink AuditSink) Option {
	return func(s *settings) error {
		if sink == nil {
			return errors.New("gsi: nil audit sink")
		}
		if s.authzAuditOff {
			return errors.New("gsi: WithAuditSink conflicts with WithoutDecisionAudit")
		}
		s.authzAudit = sink
		return nil
	}
}

// WithoutDecisionAudit keeps per-decision audit recording off even
// when WithDurableState would otherwise wire the durable audit chain
// as the pipeline's sink. For load-bearing deployments that journal
// exchanges elsewhere: with no sink the cached decision path stays
// allocation-free. The durable chain itself remains available through
// DurableState().Audit() for events recorded by other subsystems.
func WithoutDecisionAudit() Option {
	return func(s *settings) error {
		if s.authzAudit != nil {
			return errors.New("gsi: WithoutDecisionAudit conflicts with WithAuditSink")
		}
		s.authzAuditOff = true
		return nil
	}
}

// WithMetrics lands the handle's instruments in reg: session-pool
// occupancy and hit rates, decision-cache effectiveness, credential
// renewal outcomes, handshake/resume latency histograms, record-pool
// pressure, and transport throughput. Registering also installs the
// process-wide instruments (latency histograms, record pool,
// throughput) into reg; several handles may share one registry — their
// per-handle series are disambiguated by an id label carrying the
// credential's grid identity. Scrape with Registry.WritePrometheus, the
// plaintext listener of WithMetricsListener, or the gsi.__admin
// Metrics op.
func WithMetrics(reg *MetricsRegistry) Option {
	return func(s *settings) error {
		if reg == nil {
			return errors.New("gsi: nil metrics registry")
		}
		s.metrics = reg
		return nil
	}
}

// WithMetricsListener serves the WithMetrics registry over plaintext
// HTTP on addr while the endpoint is open: GET /metrics returns the
// Prometheus text exposition, GET /healthz reports 200 while every
// watched reload source is healthy (503 otherwise). Plaintext is
// deliberate — Prometheus scrapes are infrastructure-local and carry
// no secrets; bind to loopback or a management network, never the
// service interface. Server option; requires WithMetrics.
func WithMetricsListener(addr string) Option {
	return func(s *settings) error {
		if addr == "" {
			return errors.New("gsi: empty metrics listener address")
		}
		s.metricsAddr = addr
		return nil
	}
}

// WithReload hot-reloads trust and policy configuration from the files
// named in cfg while the endpoint is open: each watched file is polled
// for changes, re-parsed fully, and applied atomically through the
// generation counters the decision cache already honors — so a changed
// gridmap or withdrawn trust root takes effect on the very next
// request, without a restart. Application is fail-closed: a corrupt or
// truncated file keeps the previous configuration live and bumps the
// reload-failure counter; trust can never drop to empty because a file
// vanished mid-write. Server option.
func WithReload(cfg ReloadConfig) Option {
	return func(s *settings) error {
		if cfg.TrustRoots == "" && cfg.CRLs == "" && cfg.GridMap == "" && cfg.Policy == "" {
			return errors.New("gsi: reload config names no files to watch")
		}
		c := cfg
		s.reloadCfg = &c
		return nil
	}
}

// WithAdmin publishes the administrative port type on the endpoint's
// container under the reserved handle gsi.__admin: stats snapshots,
// metrics scrape, credential retirement, session drain, and forced
// reload, each an op authorized through the server's authorization
// pipeline (resource "ogsa:gsi.__admin", action = op) over an
// established secure conversation. It therefore requires TransportGT3
// and an authorization pipeline — an unauthorized control plane is
// refused outright. Server option.
func WithAdmin() Option {
	return func(s *settings) error {
		s.adminEnable = true
		return nil
	}
}

// WithAdminPool names the session pool the admin surface's Retire and
// Drain ops act on — pools belong to clients, so a server exposing
// pool control is handed the process's shared pool explicitly. Its
// stats also join the Stats op and the metrics registry. Server
// option; implies nothing without WithAdmin or WithMetrics.
func WithAdminPool(p *SessionPool) Option {
	return func(s *settings) error {
		if p == nil {
			return errors.New("gsi: nil admin pool")
		}
		s.adminPool = p
		return nil
	}
}

// apply folds opts over the zero-or-default settings a constructor
// starts from.
func (s *settings) apply(opts []Option) error {
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return err
		}
	}
	return nil
}

// assemblesPipeline reports whether any pipeline assembly or tuning
// option was given: a prebuilt pipeline's policy lives inside the
// pipeline object, so none of them may accompany one.
func (s *settings) assemblesPipeline() bool {
	return s.authzLocal != nil || len(s.authzVOs) > 0 || s.authzGridMap != nil ||
		s.durableDir != "" || s.casUpstream != nil ||
		s.authzTTLSet || s.authzAudit != nil || s.authzAuditOff
}

// contextConfig assembles the GSS configuration for one side of an
// establishment from an environment, a credential, and settings.
func (s *settings) contextConfig(env *Environment, cred *Credential) gss.Config {
	return gss.Config{
		Credential:    cred,
		TrustStore:    env.trust,
		Delegate:      s.delegation,
		RejectLimited: s.rejectLimited,
		ExpectedPeer:  s.expectedPeer,
		Now:           env.now,
	}
}
