package gsi

import (
	"context"
	"errors"
	"time"

	"repro/internal/cas"
	"repro/internal/gram"
	"repro/internal/gss"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/trace"
)

// Client is the initiator handle of the redesigned API: one grid party
// (a user proxy, a service acting on a user's behalf) bound to an
// Environment, from which it takes trust roots and clock. All blocking
// operations take a context.Context and honor its cancellation and
// deadline; all failures are *Error values classified onto the package
// taxonomy.
//
//	client, _ := env.NewClient(aliceProxy, gsi.WithTransport(gsi.TransportGT2()))
//	sess, err := client.Connect(ctx, endpoint)
type Client struct {
	env  *Environment
	cred *Credential
	base settings
}

// NewClient builds a Client from a credential. A nil credential is
// allowed only together with WithCredentialManager (a managed client
// always reads the manager's current credential, so a fixed one here
// would be misleading). Any pool option
// (WithSessionPool, WithMaxIdle, WithIdleTTL, WithMaxConcurrentPerHost)
// enables session pooling; without an explicitly shared pool the client
// gets a private one tuned by those options. A pooling client bound to
// a CredentialManager rekeys its pool on every rotation: the replaced
// credential's sessions drain and its resumption trees are dropped.
func (e *Environment) NewClient(cred *Credential, opts ...Option) (*Client, error) {
	// The options fold straight into the handle, so the settings are
	// allocated once, with it.
	c := &Client{env: e, cred: cred, base: settings{transport: TransportGT2()}}
	base := &c.base
	if err := base.apply(opts); err != nil {
		return nil, opErr("gsi.NewClient", err)
	}
	if cred == nil && base.credman == nil {
		return nil, opErr("gsi.NewClient", errors.New("gsi: client requires a credential unless managed"))
	}
	if cred != nil && base.credman != nil {
		return nil, opErr("gsi.NewClient", errors.New("gsi: a managed client takes its credential from the manager; pass a nil credential"))
	}
	if base.poolEnable && base.pool == nil {
		base.pool = newSessionPool(base)
	}
	if base.pool != nil && base.credman != nil {
		base.credman.bindPool(base.pool)
	}
	if base.metrics != nil {
		id := cred
		if id == nil && base.credman != nil {
			id = base.credman.Current()
		}
		if err := registerClientMetrics(base.metrics, e, metricID(id), base.pool, base.credman); err != nil {
			return nil, opErr("gsi.NewClient", err)
		}
	}
	base.buildTracer()
	return c, nil
}

// credential resolves the client's effective credential: the manager's
// current one on a managed client, the fixed one otherwise. Callers
// snapshot it once per operation so a rotation cannot split one
// operation across two credentials.
func (c *Client) credential() *Credential {
	if c.base.credman != nil {
		return c.base.credman.Current()
	}
	return c.cred
}

// Pool returns the client's session pool (nil when pooling is off).
func (c *Client) Pool() *SessionPool { return c.base.pool }

// Environment returns the client's environment.
func (c *Client) Environment() *Environment { return c.env }

// Credential returns the client's effective credential: the manager's
// current one on a managed client (so it changes across rotations), the
// fixed one otherwise.
func (c *Client) Credential() *Credential { return c.credential() }

// Connect establishes a secured session with the peer at endpoint over
// the client's transport. Cancellation aborts the handshake mid-flight,
// including while blocked on the network. On a pooling client the
// session is checked out of the pool — its Close returns it for reuse
// rather than tearing it down — so the handshake is paid only when the
// pool has no live session for (endpoint, transport, protection,
// delegation, credential).
func (c *Client) Connect(ctx context.Context, endpoint string) (Session, error) {
	const op = "gsi.Client.Connect"
	s := &c.base
	cred := c.credential()
	// Tracing: a Connect inside a traced operation (OpenStream's dial,
	// a stream's parent span in ctx) lands as a retroactive child on
	// that span; a standalone traced Connect gets its own root span.
	parent := trace.SpanFromContext(ctx)
	var sp *trace.Span
	if s.tracer != nil && parent == nil {
		sp = s.tracer.StartRoot("client.connect")
		parent = sp
	}
	start := time.Time{}
	if parent != nil {
		start = time.Now()
	}
	if s.pool != nil {
		sess, err := s.pool.checkout(ctx, c.poolKey(endpoint, cred),
			dialRequest{client: c, endpoint: endpoint, cred: cred})
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, opErr(op, err)
		}
		if parent != nil && !sess.reused {
			if sp == nil {
				parent.AddTimed("client.connect", start, time.Since(start), "")
			}
			clientHandshakeSpan(parent, sess)
		}
		if sp != nil {
			sp.SetPeer(sess.Peer().Identity.String())
			sp.End()
		}
		return sess, nil
	}
	sess, err := c.dialSession(ctx, endpoint, cred)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, opErr(op, err)
	}
	if parent != nil {
		if sp == nil {
			parent.AddTimed("client.connect", start, time.Since(start), "")
		}
		clientHandshakeSpan(parent, sess)
	}
	if sp != nil {
		sp.SetPeer(sess.Peer().Identity.String())
		sp.End()
	}
	return sess, nil
}

// dialSession performs one dial attempt (directly or from a pool
// checkout miss). A pooling client threads the pool's
// secure-conversation resumption cache into the transport so even
// fresh GT3 dials skip the WS-Trust bootstrap when an earlier
// conversation with the peer is still warm.
func (c *Client) dialSession(ctx context.Context, endpoint string, cred *Credential) (Session, error) {
	s := &c.base
	cfg := DialConfig{
		Context:    s.contextConfig(c.env, cred),
		Protection: s.protection,
	}
	// A retired credential dials without the resumption cache at all:
	// otherwise a client still holding it would re-seed a parent
	// conversation under the retired fingerprint right after the
	// rotation invalidated those trees, and later dials would resume
	// off it. Retired means every dial bootstraps fresh, permanently.
	if s.pool != nil && !s.pool.fingerprintRetired(cred) {
		cfg.resumption = s.pool.resume
		cfg.resumeKey = c.poolKey(endpoint, cred).resumeScope()
	}
	return s.transport.Dial(ctx, endpoint, cfg)
}

// Exchange performs one secured request/response with the peer at
// endpoint: on a pooling client it checks a session out, exchanges, and
// returns it; otherwise it dials, exchanges, and closes. When a reused
// session turns out poisoned (the peer went away while it sat idle),
// the exchange is retried on a fresh session — only reused sessions are
// retried, so an error from a newly established session is reported,
// not masked by re-execution.
//
// The retry relaxes at-most-once delivery: a parked connection that
// died after the peer processed the request but before the reply
// arrived is indistinguishable from one that died before delivery, so
// the op may execute twice. Issue non-idempotent operations through
// Connect and Session.Exchange instead, which never retry.
func (c *Client) Exchange(ctx context.Context, endpoint, op string, body []byte) ([]byte, error) {
	const opName = "gsi.Client.Exchange"
	s := &c.base
	// Tracing: the root span covers the whole operation — dial (or pool
	// checkout), any retries, and the exchange itself — and rides ctx so
	// the transport appends its context to the outgoing frame. The
	// disabled path pays nil checks only: no context wrap, no clock
	// reads, no allocations.
	var sp *trace.Span
	if s.tracer != nil {
		sp = s.tracer.StartRoot("client.exchange")
		ctx = trace.ContextWithSpan(ctx, sp)
	}
	if s.pool == nil {
		dialStart := time.Time{}
		if sp != nil {
			dialStart = time.Now()
		}
		sess, err := c.dialSession(ctx, endpoint, c.credential())
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, opErr(opName, err)
		}
		if sp != nil {
			sp.AddTimed("client.connect", dialStart, time.Since(dialStart), "")
			clientHandshakeSpan(sp, sess)
			sp.SetPeer(sess.Peer().Identity.String())
		}
		defer sess.Close()
		out, err := sess.Exchange(ctx, op, body)
		if sp != nil {
			sp.AddBytes(int64(len(body) + len(out)))
			sp.SetError(err)
			sp.End()
		}
		if err != nil {
			return nil, opErr(opName, err)
		}
		return out, nil
	}
	// Every reused-but-poisoned session may hide another stale one
	// behind it in the idle pool; allow one attempt per possible parked
	// session plus a final fresh dial. The credential is re-resolved per
	// attempt so a retry racing a rotation lands on the successor.
	attempts := s.pool.maxIdle + 2
	var lastErr error
	for i := 0; i < attempts; i++ {
		cred := c.credential()
		key := c.poolKey(endpoint, cred)
		checkoutStart := time.Time{}
		if sp != nil {
			checkoutStart = time.Now()
		}
		sess, err := s.pool.checkout(ctx, key, dialRequest{client: c, endpoint: endpoint, cred: cred})
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, opErr(opName, err)
		}
		if sp != nil {
			if !sess.reused {
				sp.AddTimed("client.connect", checkoutStart, time.Since(checkoutStart), "")
				clientHandshakeSpan(sp, sess)
			}
			sp.SetPeer(sess.Peer().Identity.String())
		}
		out, err := sess.Exchange(ctx, op, body)
		retriable := err != nil && sess.reused && sess.poisoned.Load() && ctx.Err() == nil
		sess.Close()
		if err == nil {
			if sp != nil {
				sp.AddBytes(int64(len(body) + len(out)))
				sp.End()
			}
			return out, nil
		}
		lastErr = err
		if !retriable {
			break
		}
	}
	sp.SetError(lastErr)
	sp.End()
	return nil, opErr(opName, lastErr)
}

// Establish runs an in-memory mutual authentication against an acceptor
// configuration, for co-located services and tests.
func (c *Client) Establish(ctx context.Context, acceptor ContextConfig) (initiator, accepted *Context, err error) {
	const op = "gsi.Client.Establish"
	ictx, actx, err := gss.EstablishContext(ctx, c.base.contextConfig(c.env, c.credential()), acceptor)
	if err != nil {
		return nil, nil, opErr(op, err)
	}
	return ictx, actx, nil
}

// Proxy creates a proxy credential below the client's credential
// (grid-proxy-init as a method).
func (c *Client) Proxy(opts ProxyOptions) (*Credential, error) {
	cred, err := proxy.New(c.credential(), opts)
	if err != nil {
		return nil, opErr("gsi.Client.Proxy", err)
	}
	return cred, nil
}

// RequestAssertion performs step 1 of the CAS flow (Figure 2): the
// client's authenticated identity asks the VO's CAS server for its
// signed policy assertion. Cancellation aborts the policy scan.
func (c *Client) RequestAssertion(ctx context.Context, server *CASServer) (*CASAssertion, error) {
	const op = "gsi.Client.RequestAssertion"
	a, err := server.IssueAssertionContext(ctx, c.credential().Identity())
	if err != nil {
		return nil, opErr(op, err)
	}
	return a, nil
}

// EmbedAssertion wraps a CAS assertion into a restricted proxy below the
// client's credential (step 2 of Figure 2), returning the credential the
// client presents to VO resources.
func (c *Client) EmbedAssertion(a *CASAssertion) (*Credential, error) {
	cred, err := cas.EmbedInProxy(c.credential(), a)
	if err != nil {
		return nil, opErr("gsi.Client.EmbedAssertion", err)
	}
	return cred, nil
}

// StoreCredential delegates a proxy below the client's credential into a
// MyProxy repository under username/passphrase; maxLifetime bounds
// proxies later retrieved.
func (c *Client) StoreCredential(ctx context.Context, repo *MyProxy, username, passphrase string, deposit *Credential, maxLifetime time.Duration) error {
	const op = "gsi.Client.StoreCredential"
	if err := repo.StoreContext(ctx, username, passphrase, deposit, maxLifetime); err != nil {
		return opErr(op, err)
	}
	return nil
}

// SubmitJob runs the full Figure-4 GRAM flow against a resource: sign
// and submit the description, then mutually authenticate with the
// created MJS, delegate if the description asks for it, and start the
// job. Cancellation aborts between the submit, connect, delegate, and
// start steps.
func (c *Client) SubmitJob(ctx context.Context, resource *JobResource, desc JobDescription) (*MJS, error) {
	const op = "gsi.Client.SubmitJob"
	// The handle's options shape the step-7 MJS connection: delegation
	// intent, peer pinning, limited-proxy rejection, depth caps.
	gc := &gram.Client{
		Credential:    c.credential(),
		Trust:         c.env.trust,
		Resource:      resource,
		ConnectConfig: c.base.contextConfig(c.env, nil),
	}
	mjs, err := gc.SubmitAndRunContext(ctx, desc)
	if err != nil {
		return nil, opErr(op, err)
	}
	return mjs, nil
}

// Invoke runs the Figure-3 secured-request pipeline against a GT3
// container endpoint (policy fetch, mechanism selection, token
// processing, delivery), returning the reply and the phase timings.
func (c *Client) Invoke(ctx context.Context, endpoint, handle, op string, body []byte) ([]byte, Trace, error) {
	const opName = "gsi.Client.Invoke"
	r := &Requestor{
		Credential:      c.credential(),
		Trust:           c.env.trust,
		PreferStateless: c.base.protection == ProtectionSigned,
	}
	// Every round trip of the pipeline is bound to ctx, so its end aborts
	// an RPC in flight, not just the next phase.
	soapClient := &soap.Client{Endpoint: endpoint}
	transport := func(env *Envelope) (*Envelope, error) { return soapClient.CallContext(ctx, env) }
	out, phases, err := r.InvokeContext(ctx, transport, handle, op, body)
	if err != nil {
		return nil, phases, opErr(opName, err)
	}
	return out, phases, nil
}

// compile-time interface checks for the session and stream
// implementations.
var (
	_ Session = (*gt2Session)(nil)
	_ Session = (*gt3Session)(nil)
	_ Session = (*gt3SignedSession)(nil)
	_ Session = (*pooledSession)(nil)

	_ sessionHealth = (*gt2Session)(nil)
	_ sessionHealth = (*gt3Session)(nil)
	_ sessionProber = (*gt2Session)(nil)

	_ Stream = (*gt2Stream)(nil)
	_ Stream = (*serverGT2Stream)(nil)
	_ Stream = (*pooledStream)(nil)
	_ Stream = (*ownedStream)(nil)
)
