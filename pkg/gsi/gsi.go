// Package gsi is the public API of this Grid Security Infrastructure
// reproduction ("Security for Grid Services", Welch et al., HPDC 2003).
//
// # The handle-based API
//
// The primary surface is three handles (see DESIGN.md for the full
// shape):
//
//   - Environment — trust roots + clock, constructed with
//     NewEnvironment and EnvOptions;
//   - Client — an initiator credential bound to an Environment; its
//     Connect/Establish/RequestAssertion/RetrieveCredential/SubmitJob/
//     Invoke methods all take a context.Context (cancellation and
//     deadlines are honored mid-handshake and mid-RPC) and return typed
//     errors matchable with errors.Is (ErrExpiredCredential,
//     ErrUntrustedIssuer, ErrUnauthorized, ErrContextClosed,
//     ErrTransport, …);
//   - Server — an acceptor credential serving secured exchanges to a
//     Handler behind its authorization pipeline: one path, on both
//     transports, authorizes every exchange and stream open before the
//     application sees it (WithLocalPolicy is the smallest way to get
//     one; a server without a pipeline serves every authenticated peer).
//
// A fourth handle, CredentialManager, keeps a credential alive across
// its own expiry: it renews from a pluggable RenewalSource (MyProxy,
// local re-delegation, or a remote delegation endpoint) ahead of a
// configurable horizon, and a Client bound to one (WithCredentialManager)
// picks up each rotation on its very next call — its session pool
// drains the replaced credential's sessions while traffic continues.
//
// Functional options (WithTransport, WithDelegation,
// WithMessageProtection, WithDeadlineSkew, WithExpectedPeer, …) configure
// a handle once, at its constructor; the handles' methods take none. The
// Transport interface unifies the GT2 raw-socket path (TransportGT2)
// and the GT3 SOAP/HTTP path (TransportGT3) — the same handshake
// tokens over either carriage, chosen by option rather than by
// function name.
//
// # Underlying domain types
//
// The package also re-exports the stable surface of the internal
// packages:
//
//   - PKI: certificate authorities, trust stores, proxy certificates and
//     delegation (GT2 §3);
//   - security contexts: GSS-style mutual authentication and message
//     protection, over raw sockets (GT2) or SOAP (GT3);
//   - community authorization: CAS servers, assertions, and resource-side
//     enforcement (Figure 2);
//   - the GT3 service stack: hosting environments with security handler
//     pipelines, published security policy, WS-SecureConversation and
//     per-message signatures, and the secured-request pipeline (Figure 3);
//   - GRAM: least-privilege remote job management (Figure 4).
//
// The quickstart example (examples/quickstart) shows the typical flow:
// create a CA, issue a user, make a proxy, authenticate mutually, and
// delegate.
package gsi

import (
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/cas"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/myproxy"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/soap"
	"repro/internal/wssec"
)

// PKI types.
type (
	// Name is an X.500-style distinguished name.
	Name = gridcert.Name
	// Certificate is a grid certificate (identity, CA, or proxy).
	Certificate = gridcert.Certificate
	// Credential is a certificate chain plus the leaf private key.
	Credential = gridcert.Credential
	// TrustStore holds trusted CA roots and CRLs.
	TrustStore = gridcert.TrustStore
	// ChainInfo is the result of validating a chain.
	ChainInfo = gridcert.ChainInfo
	// VerifyOptions tunes chain validation.
	VerifyOptions = gridcert.VerifyOptions
	// CA is a certificate authority.
	CA = ca.Authority
	// ProxyOptions tunes proxy creation and delegation.
	ProxyOptions = proxy.Options
)

// Security context types.
type (
	// Context is an established GSS security context.
	Context = gss.Context
	// ContextConfig parameterises context establishment.
	ContextConfig = gss.Config
	// Peer is the authenticated remote party.
	Peer = gss.Peer
	// Conn is a GT2-style secured transport connection.
	Conn = gsitransport.Conn
)

// Authorization and CAS types.
type (
	// Policy is an ordered rule set.
	Policy = authz.Policy
	// Rule is one policy statement.
	Rule = authz.Rule
	// Request is an access-control question.
	Request = authz.Request
	// Decision is permit/deny/not-applicable.
	Decision = authz.Decision
	// Engine decides authorization requests.
	Engine = authz.Engine
	// GridMap maps grid identities to local accounts.
	GridMap = authz.GridMap
	// CASServer is a community authorization server.
	CASServer = cas.Server
	// CASAssertion is a signed VO policy statement.
	CASAssertion = cas.Assertion
	// CASEnforcer applies local ∩ VO policy at a resource.
	CASEnforcer = cas.Enforcer
)

// GT3 service types.
type (
	// Container is an OGSA hosting environment.
	Container = ogsa.Container
	// Service is a Grid service.
	Service = ogsa.Service
	// Call is an authenticated, authorized invocation.
	Call = ogsa.Call
	// ServiceClient invokes container services (signed or stateful).
	ServiceClient = ogsa.Client
	// Requestor automates the Figure-3 secured-request pipeline.
	Requestor = core.Requestor
	// PolicyDocument is a published WS-Policy security policy.
	PolicyDocument = wssec.PolicyDocument
	// Envelope is a SOAP message.
	Envelope = soap.Envelope
	// MyProxy is an online credential repository.
	MyProxy = myproxy.Server
	// DelegationConfig tunes a container's delegation port type
	// (Container.EnableDelegation; see DelegationEndpoint).
	DelegationConfig = ogsa.DelegationConfig
	// DelegationService is the online delegation port type: subjects
	// deposit a credential over a secure conversation and later
	// retrieve fresh proxies minted below it (a renewal source for
	// CredentialManager via EndpointRenewal).
	DelegationService = ogsa.DelegationService
	// Trace records where time went in one secured request (Figure 3).
	Trace = core.Trace
)

// GRAM types (Figure 4).
type (
	// JobResource is a GT3 GRAM resource (router, MMJFS, per-user
	// LMJFS/MJS machinery over a simulated OS).
	JobResource = gram.Resource
	// JobDescription describes a job to submit.
	JobDescription = gram.JobDescription
	// JobHandle identifies a submitted job.
	JobHandle = gram.JobHandle
	// MJS is a managed job service instance.
	MJS = gram.MJS
	// Job is the job state machine an MJS manages.
	Job = gram.Job
)

// Decision and effect constants.
const (
	Permit        = authz.Permit
	Deny          = authz.Deny
	NotApplicable = authz.NotApplicable
	EffectPermit  = authz.EffectPermit
	EffectDeny    = authz.EffectDeny
)

// Proxy variants.
const (
	ProxyImpersonation = gridcert.ProxyImpersonation
	ProxyLimited       = gridcert.ProxyLimited
	ProxyRestricted    = gridcert.ProxyRestricted
)

// JobProgram is the well-known simulated job executable on GRAM
// resources.
const JobProgram = gram.JobProgram

// NewJobResource boots a GT3 GRAM resource host (Figure 4): proxy
// router, MMJFS, setuid starter, and GRIM over a simulated OS. Jobs are
// submitted with Client.SubmitJob.
func NewJobResource(hostCred *Credential, trust *TrustStore, gridmap *GridMap) (*JobResource, error) {
	return gram.NewResource(hostCred, trust, gridmap)
}

// ParseName parses "/O=Grid/CN=Alice" style distinguished names.
func ParseName(s string) (Name, error) { return gridcert.ParseName(s) }

// MustParseName is ParseName that panics on error.
func MustParseName(s string) Name { return gridcert.MustParseName(s) }

// NewCA creates a certificate authority with a self-signed root.
func NewCA(subject string, lifetime time.Duration) (*CA, error) {
	n, err := gridcert.ParseName(subject)
	if err != nil {
		return nil, err
	}
	return ca.New(n, lifetime, ca.DefaultPolicy())
}

// NewTrustStore creates an empty trust store.
func NewTrustStore() *TrustStore { return gridcert.NewTrustStore() }

// NewProxy creates a proxy credential below signer (grid-proxy-init).
func NewProxy(signer *Credential, opts ProxyOptions) (*Credential, error) {
	return proxy.New(signer, opts)
}

// NewPolicy creates a deny-overrides policy.
func NewPolicy(rules ...Rule) *Policy {
	return authz.NewPolicy(authz.DenyOverrides).Add(rules...)
}

// NewGridMap creates an empty grid-mapfile.
func NewGridMap() *GridMap { return authz.NewGridMap() }

// NewCASServer creates a community authorization server for a VO
// credential. Members request assertions with Client.RequestAssertion.
func NewCASServer(voCred *Credential) *CASServer { return cas.NewServer(voCred) }

// NewCASEnforcer creates the resource-side CAS policy combiner.
func NewCASEnforcer(trust *TrustStore, local *Policy) *CASEnforcer {
	return cas.NewEnforcer(trust, local)
}

// NewMyProxy creates an online credential repository.
func NewMyProxy() *MyProxy { return myproxy.NewServer() }

// PipeTransport wires a Requestor or ServiceClient directly to a
// container in-process.
func PipeTransport(c *Container) func(*Envelope) (*Envelope, error) {
	return soap.Pipe(c.Dispatcher())
}

// ServeHTTP binds a container's dispatcher to an HTTP endpoint and
// returns its URL and a shutdown function.
func ServeHTTP(c *Container, addr string) (url string, shutdown func() error, err error) {
	srv, err := soap.NewServer(addr, c.Dispatcher())
	if err != nil {
		return "", nil, err
	}
	return srv.URL(), srv.Close, nil
}

// HTTPTransport returns a transport calling a remote SOAP endpoint.
func HTTPTransport(endpoint string) func(*Envelope) (*Envelope, error) {
	client := &soap.Client{Endpoint: endpoint}
	return client.Call
}

// GenerateKey creates a fresh Ed25519 key pair (for CSR-style issuance).
func GenerateKey() (*gridcrypto.KeyPair, error) {
	return gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
}

// EncodeChain serialises a certificate chain, leaf first.
func EncodeChain(chain []*Certificate) []byte { return gridcert.EncodeChain(chain) }

// DecodeChain reverses EncodeChain.
func DecodeChain(b []byte) ([]*Certificate, error) { return gridcert.DecodeChain(b) }

// DecodeCertificate parses one encoded certificate (grid-cert-info).
func DecodeCertificate(b []byte) (*Certificate, error) { return gridcert.Decode(b) }
