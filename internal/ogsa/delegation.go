package ogsa

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/wire"
)

// The delegation port type of the paper's §4.1: an online endpoint a
// subject delegates a credential *to* (deposit) and later renews *from*
// (retrieve) — the container-hosted analogue of MyProxy, reached over
// an established secure conversation instead of a passphrase.
//
// The handle lives in the reserved gsi.__ namespace: it is security
// infrastructure of the hosting environment, not an application
// service, and pkg/gsi keeps application ops out of that namespace on
// both transports.
const DelegationHandle = "gsi.__delegate"

// Delegation port type operations.
const (
	// DelegationOpInitiate starts a deposit: the service (the delegatee)
	// generates a fresh key pair and returns its DelegationRequest.
	// Body: i64 requested proxy lifetime in seconds (0 = caller default).
	DelegationOpInitiate = "Initiate"
	// DelegationOpDeposit completes a deposit: the caller signed a proxy
	// over the service's key and hands back the DelegationReply.
	// Body: bytes(reply) || i64 max retrieval lifetime in seconds.
	DelegationOpDeposit = "Deposit"
	// DelegationOpRetrieve mints a successor: the caller sends a
	// DelegationRequest over its own fresh key and receives a proxy
	// below its deposited credential. Body: DelegationRequest encoding.
	DelegationOpRetrieve = "Retrieve"
	// DelegationOpInfo reports the caller's deposit (expiry, cap) as
	// "notAfter=<RFC3339> max=<duration>".
	DelegationOpInfo = "Info"
)

// DefaultDelegationLifetime caps proxies minted by Retrieve when
// neither the deposit nor the service configured a tighter bound.
const DefaultDelegationLifetime = 12 * time.Hour

// ErrNoDeposit is returned by Retrieve/Info when the caller has no
// stored delegation.
var ErrNoDeposit = errors.New("ogsa: no deposited credential for subject")

// DelegationConfig tunes a DelegationService.
type DelegationConfig struct {
	// MaxLifetime caps proxies minted by Retrieve service-wide; 0 means
	// DefaultDelegationLifetime. Per-deposit caps tighten it further.
	MaxLifetime time.Duration
	// Audit receives delegation events (deposit, retrieve, refusals);
	// nil disables. Wire the container's security-services audit log
	// (internal/secsvc) here so delegations land in the tamper-evident
	// chain.
	Audit AuditSink
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// deposit is one subject's stored delegated credential.
type deposit struct {
	cred *gridcert.Credential
	max  time.Duration // per-deposit retrieval cap
}

// DelegationService implements the delegation port type. Every
// operation requires an authenticated caller on an established secure
// conversation: the service hands out live key material (proxies it
// mints), so per-message signatures — which authenticate a request, not
// a channel — are not accepted. Deposits are keyed by the caller's grid
// identity; a subject can only ever retrieve below its own deposit.
type DelegationService struct {
	cfg DelegationConfig

	mu       sync.Mutex
	pending  map[string]*proxy.Delegatee // in-flight Initiate per subject
	deposits map[string]deposit
}

// NewDelegationService builds the port type implementation. Publish it
// on a container under DelegationHandle (or use Container.EnableDelegation).
func NewDelegationService(cfg DelegationConfig) *DelegationService {
	if cfg.MaxLifetime <= 0 {
		cfg.MaxLifetime = DefaultDelegationLifetime
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &DelegationService{
		cfg:      cfg,
		pending:  make(map[string]*proxy.Delegatee),
		deposits: make(map[string]deposit),
	}
}

// EnableDelegation publishes the delegation port type on the container
// under DelegationHandle, inheriting the container's audit sink when
// the config carries none.
func (c *Container) EnableDelegation(cfg DelegationConfig) *DelegationService {
	if cfg.Audit == nil {
		cfg.Audit = c.cfg.Audit
	}
	svc := NewDelegationService(cfg)
	c.Publish(DelegationHandle, svc)
	return svc
}

func (s *DelegationService) audit(event, subject, detail string) {
	if s.cfg.Audit != nil {
		s.cfg.Audit.Record(event, subject, detail)
	}
}

// Invoke implements Service.
func (s *DelegationService) Invoke(call *Call) ([]byte, error) {
	if !call.Conversation {
		s.audit("delegation-refused", call.Caller.Name.String(), "no secure conversation")
		return nil, errors.New("ogsa: delegation requires an established secure conversation")
	}
	if call.Caller.Anonymous {
		s.audit("delegation-refused", "", "anonymous caller")
		return nil, errors.New("ogsa: delegation requires an authenticated caller")
	}
	if call.Caller.Limited {
		// The GSI limited-proxy rule: a limited proxy must not beget
		// further credentials.
		s.audit("delegation-refused", call.Caller.Name.String(), "limited proxy")
		return nil, errors.New("ogsa: limited proxies cannot delegate or retrieve")
	}
	subject := call.Caller.Name.String()
	switch call.Op {
	case DelegationOpInitiate:
		return s.initiate(subject, call.Body)
	case DelegationOpDeposit:
		return s.deposit(subject, call.Caller.Name, call.Body)
	case DelegationOpRetrieve:
		return s.retrieve(subject, call.Body)
	case DelegationOpInfo:
		return s.info(subject)
	default:
		return nil, fmt.Errorf("ogsa: delegation port type has no op %q", call.Op)
	}
}

// initiate generates the service-side key pair for a deposit and
// returns the delegation request the caller must sign.
func (s *DelegationService) initiate(subject string, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	seconds := d.I64()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("ogsa: malformed Initiate body: %w", err)
	}
	if seconds < 0 {
		return nil, errors.New("ogsa: negative deposit lifetime")
	}
	if seconds > math.MaxInt64/int64(time.Second) {
		// Mirror DecodeDelegationRequest: a count this large would wrap
		// time.Duration into an arbitrary lifetime.
		return nil, errors.New("ogsa: deposit lifetime overflows")
	}
	delegatee, req, err := proxy.NewDelegatee(time.Duration(seconds)*time.Second, false)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.pending[subject] = delegatee
	s.mu.Unlock()
	s.audit("delegation-initiate", subject, "")
	return req.Encode(), nil
}

// deposit completes a deposit: accept the signed reply under the
// pending key pair, check the chain really is the caller's, and store
// it.
func (s *DelegationService) deposit(subject string, caller gridcert.Name, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	replyBytes := d.Bytes()
	maxSeconds := d.I64()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("ogsa: malformed Deposit body: %w", err)
	}
	if maxSeconds < 0 {
		return nil, errors.New("ogsa: negative retrieval cap")
	}
	if maxSeconds > math.MaxInt64/int64(time.Second) {
		return nil, errors.New("ogsa: retrieval cap overflows")
	}
	reply, err := proxy.DecodeDelegationReply(replyBytes)
	if err != nil {
		return nil, fmt.Errorf("ogsa: bad delegation reply: %w", err)
	}
	s.mu.Lock()
	delegatee := s.pending[subject]
	delete(s.pending, subject)
	s.mu.Unlock()
	if delegatee == nil {
		return nil, fmt.Errorf("ogsa: no pending delegation for %q (Initiate first)", subject)
	}
	cred, err := delegatee.Accept(reply)
	if err != nil {
		return nil, fmt.Errorf("ogsa: accepting delegation: %w", err)
	}
	// The authenticated channel identity and the delegated chain's
	// end-entity identity must agree: a caller may only deposit power
	// over its own identity.
	if !cred.Identity().Equal(caller) {
		s.audit("delegation-refused", subject, "deposit identity mismatch: "+cred.Identity().String())
		return nil, fmt.Errorf("ogsa: deposited chain is for %q, caller is %q", cred.Identity(), caller)
	}
	if s.cfg.Now().After(cred.Leaf().NotAfter) {
		return nil, errors.New("ogsa: deposited credential already expired")
	}
	max := time.Duration(maxSeconds) * time.Second
	if max <= 0 || max > s.cfg.MaxLifetime {
		max = s.cfg.MaxLifetime
	}
	s.mu.Lock()
	s.deposits[subject] = deposit{cred: cred, max: max}
	s.mu.Unlock()
	s.audit("delegation-deposit", subject,
		fmt.Sprintf("notAfter=%s max=%s", cred.Leaf().NotAfter.Format(time.RFC3339), max))
	return []byte("ok"), nil
}

// retrieve mints a proxy below the caller's deposit: lifetime is the
// minimum of the request, the per-deposit cap, the service cap, and —
// via proxy issuance clipping — the deposit's own remaining validity.
func (s *DelegationService) retrieve(subject string, body []byte) ([]byte, error) {
	req, err := proxy.DecodeDelegationRequest(body)
	if err != nil {
		return nil, fmt.Errorf("ogsa: bad delegation request: %w", err)
	}
	s.mu.Lock()
	dep, ok := s.deposits[subject]
	s.mu.Unlock()
	if !ok {
		s.audit("delegation-refused", subject, "no deposit")
		return nil, fmt.Errorf("%w: %q", ErrNoDeposit, subject)
	}
	if s.cfg.Now().After(dep.cred.Leaf().NotAfter) {
		s.mu.Lock()
		// Re-check under the lock so a concurrent fresh deposit is not
		// discarded by a stale expiry observation.
		if cur, still := s.deposits[subject]; still && cur.cred == dep.cred {
			delete(s.deposits, subject)
		}
		s.mu.Unlock()
		s.audit("delegation-refused", subject, "deposit expired")
		return nil, fmt.Errorf("ogsa: deposited credential for %q expired", subject)
	}
	lifetime := dep.max
	if req.Lifetime > 0 && req.Lifetime < lifetime {
		lifetime = req.Lifetime
	}
	reply, err := proxy.HandleDelegation(dep.cred, proxy.DelegationRequest{
		PublicKey: req.PublicKey,
		Limited:   req.Limited,
	}, proxy.Options{Lifetime: lifetime})
	if err != nil {
		return nil, fmt.Errorf("ogsa: minting delegated proxy: %w", err)
	}
	s.audit("delegation-retrieve", subject, fmt.Sprintf("lifetime=%s limited=%v", lifetime, req.Limited))
	return reply.Encode(), nil
}

// info reports the caller's deposit metadata.
func (s *DelegationService) info(subject string) ([]byte, error) {
	s.mu.Lock()
	dep, ok := s.deposits[subject]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDeposit, subject)
	}
	return []byte(fmt.Sprintf("notAfter=%s max=%s",
		dep.cred.Leaf().NotAfter.Format(time.RFC3339), dep.max)), nil
}
