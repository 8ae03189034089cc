package gsi

import (
	"context"
	"sync"
	"time"

	"repro/internal/credman"
	"repro/internal/ogsa"
)

// DelegationEndpoint is the well-known handle of the OGSA delegation
// port type (enable it on a container with Container.EnableDelegation).
// It lives in the reserved gsi.__ namespace: security infrastructure,
// not an application service.
const DelegationEndpoint = ogsa.DelegationHandle

// DepositDelegation runs the client half of the delegation-endpoint
// deposit: the service generates a key pair, cred signs a proxy over it
// (lifetime long — this is the deposit successors are minted below),
// and the service stores it for the subject. maxLifetime caps each
// later retrieval; 0 accepts the service default. invoke carries one
// secured operation to the service (ServiceClient.InvokeSecure against
// DelegationEndpoint, typically).
func DepositDelegation(ctx context.Context, invoke func(ctx context.Context, op string, body []byte) ([]byte, error), cred *Credential, lifetime, maxLifetime time.Duration) error {
	if err := credman.Deposit(ctx, invoke, cred, lifetime, maxLifetime); err != nil {
		return opErr("gsi.DepositDelegation", err)
	}
	return nil
}

// RenewalSource obtains successor credentials for a CredentialManager.
// The built-in sources cover the paper's renewal paths —
// DelegationRenewal (re-delegation below a local signer) and
// EndpointRenewal (the OGSA delegation port type, where a deposited
// credential is renewed as from a MyProxy repository).
type RenewalSource = credman.Source

// RenewalStats is a snapshot of a CredentialManager's activity.
type RenewalStats = credman.Stats

// DelegationRenewal renews by minting a fresh sibling proxy below a
// locally held signer via the standard delegation exchange.
func DelegationRenewal(signer *Credential, opts ProxyOptions) RenewalSource {
	return credman.LocalSource{Signer: signer, Options: opts}
}

// EndpointRenewal renews against a remote delegation port type
// (ogsa.DelegationHandle): invoke carries one secured operation to the
// service, which mints a proxy below the credential the subject
// previously deposited there.
func EndpointRenewal(invoke func(ctx context.Context, op string, body []byte) ([]byte, error), lifetime time.Duration) RenewalSource {
	return credman.EndpointSource{Invoke: invoke, Lifetime: lifetime}
}

// CredentialManager keeps a credential alive across rotations: Current
// always returns a usable credential, Start runs the background renewal
// loop (horizon ahead of expiry, with jitter and retry backoff), and
// rotation hooks let session pools rekey non-disruptively. Bind it to
// Clients with WithCredentialManager; one manager can back any number
// of clients.
//
//	cm, _ := env.NewCredentialManager(proxy,
//	    gsi.EndpointRenewal(invoke, time.Hour),
//	    gsi.WithRenewalHorizon(10*time.Minute))
//	cm.Start()
//	defer cm.Close()
//	client, _ := env.NewClient(nil,
//	    gsi.WithCredentialManager(cm), gsi.WithSessionPool(nil))
type CredentialManager struct {
	m   *credman.Manager
	env *Environment

	mu    sync.Mutex
	pools map[*SessionPool]struct{} // pools with a live rekey hook
}

// bindPool registers the rotation→pool-rekey hook, once per pool no
// matter how many clients share the (manager, pool) pair. The hook
// prunes itself when the pool is closed, so short-lived pools do not
// accumulate on a long-lived manager.
func (cm *CredentialManager) bindPool(pool *SessionPool) {
	cm.mu.Lock()
	if cm.pools == nil {
		cm.pools = make(map[*SessionPool]struct{})
	}
	if _, dup := cm.pools[pool]; dup {
		cm.mu.Unlock()
		return
	}
	cm.pools[pool] = struct{}{}
	cm.mu.Unlock()
	cm.m.OnRotateWhile(func(old, _ *Credential) bool {
		if pool.isClosed() {
			cm.mu.Lock()
			delete(cm.pools, pool)
			cm.mu.Unlock()
			return false
		}
		pool.RetireCredential(old)
		return true
	})
}

// NewCredentialManager builds a manager over an initial credential,
// renewing from source and validating against the environment's clock.
// The renewal options (WithRenewalHorizon, WithRenewalJitter) tune it;
// failed renewals back off from 1 s, doubling to 1 min. Options that do
// not apply to a manager are
// ignored, matching how handle options behave across operations.
func (e *Environment) NewCredentialManager(initial *Credential, source RenewalSource, opts ...Option) (*CredentialManager, error) {
	const op = "gsi.NewCredentialManager"
	var s settings
	if err := s.apply(opts); err != nil {
		return nil, opErr(op, err)
	}
	m, err := credman.NewManager(initial, credman.Config{
		Source:  source,
		Horizon: s.renewHorizon,
		Jitter:  s.renewJitter,
		Now:     e.now,
	})
	if err != nil {
		return nil, opErr(op, err)
	}
	return &CredentialManager{m: m, env: e}, nil
}

// Current returns the managed credential (never nil).
func (cm *CredentialManager) Current() *Credential { return cm.m.Current() }

// Environment returns the manager's environment.
func (cm *CredentialManager) Environment() *Environment { return cm.env }

// Start launches the background renewal loop. Idempotent.
func (cm *CredentialManager) Start() { cm.m.Start() }

// Close stops the renewal loop; Current keeps answering. Idempotent.
func (cm *CredentialManager) Close() error { return cm.m.Close() }

// Renew rotates now: one successor is obtained from the source,
// published, and the rotation hooks (pool rekey, cache invalidation)
// run before Renew returns. Used by one-shot tools and tests; the
// background loop calls the same path.
func (cm *CredentialManager) Renew(ctx context.Context) (*Credential, error) {
	const op = "gsi.CredentialManager.Renew"
	next, err := cm.m.Renew(ctx)
	if err != nil {
		return nil, opErr(op, err)
	}
	return next, nil
}

// Stats returns a snapshot of the manager's counters.
func (cm *CredentialManager) Stats() RenewalStats { return cm.m.Stats() }
