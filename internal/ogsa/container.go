package ogsa

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/gss"
	"repro/internal/soap"
	"repro/internal/trace"
	"repro/internal/wssec"
	"repro/internal/xmlsec"
)

// AuditSink receives security-relevant events from the container. The
// audit service of §4.1 implements it.
type AuditSink interface {
	Record(event, subject, detail string)
}

// ChainAuthorizer is the chain-aware authorization hook (Figure 3 step
// 5, upgraded): unlike authz.Engine it receives the caller's full
// authenticated peer — validated chain and ChainInfo included — so
// implementations can verify CAS assertions, combine VO and local
// policy, and map the identity through a grid-mapfile. It returns the
// mapped local account (empty if no mapping applies) or an error to
// deny the call. The pkg/gsi AuthorizationPipeline implements it.
//
// ctx is the lifetime of the authorization question; the container
// passes context.Background() because the SOAP request path carries no
// caller deadline, but other hosts (and future transports) thread the
// real one.
type ChainAuthorizer interface {
	AuthorizeChain(ctx context.Context, peer gss.Peer, resource, action string) (localAccount string, err error)
}

// ContainerConfig assembles a hosting environment.
type ContainerConfig struct {
	// Name labels the container (host identity).
	Name string
	// Credential authenticates the container's services.
	Credential *gridcert.Credential
	// TrustStore validates callers.
	TrustStore *gridcert.TrustStore
	// Authorizer decides inbound calls; nil permits everything that
	// authenticated (used by per-user containers whose OS account is the
	// authorization boundary).
	Authorizer authz.Engine
	// ChainAuthorizer, when set, takes precedence over Authorizer: it
	// sees the caller's validated chain, so CAS assertions and gridmap
	// mappings participate in the decision.
	ChainAuthorizer ChainAuthorizer
	// Now overrides the clock authorization requests are stamped with
	// (nil means time.Now). Wired from the facade Environment so
	// time-bounded policy rules see the same clock as chain validation.
	Now func() time.Time
	// Audit receives events; nil disables auditing.
	Audit AuditSink
	// Policy is the published security policy; nil publishes a default
	// (both mechanisms, gsi:proxy tokens, container trust roots).
	Policy *wssec.PolicyDocument
	// RejectLimited refuses limited-proxy callers container-wide (set on
	// job-creating containers per the GSI limited-proxy rule).
	RejectLimited bool
}

// Container is a hosting environment: it holds service instances, routes
// secured SOAP traffic to them, and runs the Figure-3 server-side
// security pipeline (token processing, identity establishment,
// authorization, audit) so that "the application, knowing that the
// hosting environment has already taken care of security, can focus on
// application-specific request processing".
type Container struct {
	cfg        ContainerConfig
	dispatcher *soap.Dispatcher
	convMgr    *wssec.ConversationManager

	mu       sync.RWMutex
	services map[string]Service
	seq      uint64
}

// NewContainer builds a hosting environment and its SOAP dispatcher.
func NewContainer(cfg ContainerConfig) (*Container, error) {
	if cfg.Credential == nil {
		return nil, errors.New("ogsa: container requires a credential")
	}
	if cfg.TrustStore == nil {
		return nil, errors.New("ogsa: container requires a trust store")
	}
	c := &Container{
		cfg:        cfg,
		dispatcher: soap.NewDispatcher(),
		services:   make(map[string]Service),
	}
	c.convMgr = wssec.NewConversationManager(gss.Config{
		Credential:    cfg.Credential,
		TrustStore:    cfg.TrustStore,
		RejectLimited: cfg.RejectLimited,
	})
	c.convMgr.Register(c.dispatcher)

	// Publish security policy (§4.3). The default policy is recomputed on
	// every fetch so trust roots added after boot are reflected.
	c.dispatcher.Handle(wssec.ActionGetPolicy, func(env *soap.Envelope) (*soap.Envelope, error) {
		pol := cfg.Policy
		if pol == nil {
			pol = c.defaultPolicy()
		}
		data, err := pol.Marshal()
		if err != nil {
			return nil, err
		}
		return env.Reply(data), nil
	})

	// Secured application traffic: stateful (conversation-wrapped) and
	// stateless (signed) variants share the routing logic.
	c.dispatcher.Handle("ogsa/", c.handleSigned)
	c.dispatcher.Handle("ogsa-sc/", c.convMgr.Secure(c.handleConversation))
	return c, nil
}

func (c *Container) defaultPolicy() *wssec.PolicyDocument {
	var roots []string
	for _, r := range c.cfg.TrustStore.Roots() {
		fp := r.Fingerprint()
		roots = append(roots, fmt.Sprintf("%x", fp[:]))
	}
	return &wssec.PolicyDocument{
		Service:            c.cfg.Name,
		Mechanisms:         []wssec.Mechanism{wssec.MechSecureConversation, wssec.MechMessageSignature},
		AcceptedTokenTypes: []string{"gsi:proxy", "cas:assertion"},
		TrustRoots:         roots,
	}
}

// Dispatcher exposes the container's SOAP dispatcher for binding to a
// transport (HTTP server or in-memory pipe).
func (c *Container) Dispatcher() *soap.Dispatcher { return c.dispatcher }

// ConversationManager exposes the WS-SecureConversation state (tests and
// expiry sweeps).
func (c *Container) ConversationManager() *wssec.ConversationManager { return c.convMgr }

// Publish registers a service instance under a handle.
func (c *Container) Publish(handle string, svc Service) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.services[handle] = svc
}

// Lookup returns a published service.
func (c *Container) Lookup(handle string) (Service, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.services[handle]
	return s, ok
}

// Remove unpublishes a service.
func (c *Container) Remove(handle string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.services, handle)
}

// --- inbound pipeline --------------------------------------------------

// handleSigned processes stateless, XML-Signature-authenticated traffic
// with action form "ogsa/<handle>/<op>".
func (c *Container) handleSigned(env *soap.Envelope) (*soap.Envelope, error) {
	info, err := xmlsec.VerifyEnvelope(env, xmlsec.VerifyOptions{
		TrustStore:    c.cfg.TrustStore,
		RejectLimited: c.cfg.RejectLimited,
		Now:           c.now(),
	})
	if err != nil {
		c.audit("auth-fail", "", err.Error())
		return nil, fmt.Errorf("ogsa: authentication: %w", err)
	}
	caller := Identity{Name: info.Identity, Limited: info.Limited}
	peer := gss.Peer{Identity: info.Identity, Subject: info.Subject, Info: info}
	return c.route(env, "ogsa/", caller, peer, false)
}

// handleConversation processes conversation-secured traffic with action
// form "ogsa-sc/<handle>/<op>". The peer was authenticated at context
// establishment.
func (c *Container) handleConversation(peer gss.Peer, env *soap.Envelope) (*soap.Envelope, error) {
	caller := Identity{Anonymous: peer.Anonymous, Name: peer.Identity}
	if peer.Info != nil {
		caller.Limited = peer.Info.Limited
	}
	return c.route(env, "ogsa-sc/", caller, peer, true)
}

func (c *Container) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// route authorizes and delivers an authenticated call. conversation
// marks calls that arrived over an established secure conversation.
func (c *Container) route(env *soap.Envelope, prefix string, caller Identity, peer gss.Peer, conversation bool) (*soap.Envelope, error) {
	rest := strings.TrimPrefix(env.Action, prefix)
	slash := strings.LastIndexByte(rest, '/')
	if slash <= 0 || slash == len(rest)-1 {
		return nil, fmt.Errorf("ogsa: malformed action %q (want %s<handle>/<op>)", env.Action, prefix)
	}
	handle, op := rest[:slash], rest[slash+1:]

	// The trace header (when present and well-formed) joins this call
	// to the caller's trace: the context rides the authorization
	// context and the Call so downstream spans parent under it. The
	// header is unauthenticated metadata — it influences telemetry
	// only, never routing or authorization decisions.
	authCtx := context.Background()
	var tc trace.SpanContext
	if h, ok := env.Header(trace.SOAPHeader); ok {
		if sc, valid := trace.DecodeSpanContext(h.Content); valid {
			tc = sc
			authCtx = trace.ContextWithRemote(authCtx, sc)
		}
	}

	// Authorization (Figure 3 step 5). The chain-aware hook sees the
	// full peer and wins over the plain engine when both are set.
	if c.cfg.ChainAuthorizer != nil {
		account, err := c.cfg.ChainAuthorizer.AuthorizeChain(authCtx, peer, "ogsa:"+handle, op)
		if err != nil {
			c.audit("authz-deny", caller.Name.String(), handle+"/"+op)
			return nil, fmt.Errorf("ogsa: %q denied %s on %s: %w", caller.Name, op, handle, err)
		}
		caller.LocalAccount = account
	} else if c.cfg.Authorizer != nil {
		decision, err := c.cfg.Authorizer.Authorize(authz.Request{
			Subject:  caller.Name,
			Resource: "ogsa:" + handle,
			Action:   op,
			Time:     c.now(),
		})
		if err != nil {
			return nil, fmt.Errorf("ogsa: authorization service: %w", err)
		}
		if decision != authz.Permit {
			c.audit("authz-deny", caller.Name.String(), handle+"/"+op)
			return nil, fmt.Errorf("ogsa: %q denied %s on %s", caller.Name, op, handle)
		}
	}
	c.audit("invoke", caller.Name.String(), handle+"/"+op)

	c.mu.RLock()
	svc, ok := c.services[handle]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchService, handle)
	}
	if b, ok := svc.(interface{ Destroyed() bool }); ok && b.Destroyed() {
		return nil, ErrServiceDestroyed
	}
	reply, err := svc.Invoke(&Call{Service: handle, Op: op, Body: env.Body, Caller: caller, Conversation: conversation, Trace: tc})
	if err != nil {
		return nil, err
	}
	return env.Reply(reply), nil
}

func (c *Container) audit(event, subject, detail string) {
	if c.cfg.Audit != nil {
		c.cfg.Audit.Record(event, subject, detail)
	}
}

// Client is the client side of container invocation: it wraps transports
// and credentials into typed calls. Stateless calls sign each envelope;
// stateful calls run over an established conversation.
type Client struct {
	// Transport delivers envelopes to the container.
	Transport wssec.Transport
	// Credential signs stateless requests and establishes conversations.
	Credential *gridcert.Credential
	// TrustStore validates the container.
	TrustStore *gridcert.TrustStore

	mu   sync.Mutex
	conv *wssec.Conversation
}

// InvokeSigned makes a stateless, per-message-signed call.
func (cl *Client) InvokeSigned(handle, op string, body []byte) ([]byte, error) {
	env := soap.NewEnvelope("ogsa/"+handle+"/"+op, body)
	if err := xmlsec.SignEnvelope(env, cl.Credential); err != nil {
		return nil, err
	}
	reply, err := cl.Transport(env)
	if err != nil {
		return nil, err
	}
	if reply.Fault != nil {
		return nil, reply.Fault
	}
	return reply.Body, nil
}

// InvokeSecure makes a stateful call, establishing the conversation on
// first use.
func (cl *Client) InvokeSecure(handle, op string, body []byte) ([]byte, error) {
	cl.mu.Lock()
	if cl.conv == nil || cl.conv.Context().Expired() {
		conv, err := wssec.EstablishConversation(gss.Config{
			Credential: cl.Credential,
			TrustStore: cl.TrustStore,
		}, cl.Transport)
		if err != nil {
			cl.mu.Unlock()
			return nil, err
		}
		cl.conv = conv
	}
	conv := cl.conv
	cl.mu.Unlock()
	reply, err := conv.Call(soap.NewEnvelope("ogsa-sc/"+handle+"/"+op, body))
	if err != nil {
		return nil, err
	}
	return reply.Body, nil
}
