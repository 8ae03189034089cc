// Package credman keeps a proxy credential alive: a Manager watches the
// managed credential's remaining lifetime and, ahead of a configurable
// horizon, obtains a successor from a pluggable Source — the paper's
// MyProxy online repository, re-delegation against a local signer, or
// the OGSA delegation port type — then publishes it atomically so
// long-running grid work (job trees, pooled sessions, resumption trees)
// outlives any single short-lived proxy.
package credman

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcert"
	"repro/internal/myproxy"
	"repro/internal/ogsa"
	"repro/internal/proxy"
	"repro/internal/wire"
)

// Source obtains a successor for the managed credential. current is the
// credential being replaced (possibly already expired — sources must
// not require it to be live, that is the whole point of renewal).
// Implementations must be safe for concurrent use.
type Source interface {
	Renew(ctx context.Context, current *gridcert.Credential) (*gridcert.Credential, error)
}

// MyProxySource renews from an online credential repository: a fresh
// key pair is generated locally, only its public half crosses the
// exchange, and the repository signs a short-lived proxy below the
// stored credential (myproxy-logon as a renewal engine).
type MyProxySource struct {
	// Repo is the repository holding the deposited credential.
	Repo *myproxy.Server
	// Username and Passphrase authenticate the retrieval.
	Username, Passphrase string
	// Lifetime requests the successor's lifetime (the repository may
	// cap it); 0 accepts the repository's maximum.
	Lifetime time.Duration
	// Limited requests a limited proxy.
	Limited bool
}

// Renew implements Source.
func (s MyProxySource) Renew(ctx context.Context, _ *gridcert.Credential) (*gridcert.Credential, error) {
	if s.Repo == nil {
		return nil, errors.New("credman: MyProxySource requires a repository")
	}
	delegatee, req, err := proxy.NewDelegatee(s.Lifetime, s.Limited)
	if err != nil {
		return nil, err
	}
	reply, err := s.Repo.RetrieveContext(ctx, s.Username, s.Passphrase, req)
	if err != nil {
		return nil, fmt.Errorf("credman: myproxy retrieve: %w", err)
	}
	return delegatee.Accept(reply)
}

// LocalSource renews by re-delegating below a locally held signer (the
// user's long-term credential or a medium-lived proxy): each renewal
// mints a fresh sibling proxy via the standard delegation exchange run
// in-process.
type LocalSource struct {
	// Signer issues the successors.
	Signer *gridcert.Credential
	// Options shape the minted proxies (lifetime, variant, depth).
	Options proxy.Options
}

// Renew implements Source.
func (s LocalSource) Renew(ctx context.Context, _ *gridcert.Credential) (*gridcert.Credential, error) {
	if s.Signer == nil {
		return nil, errors.New("credman: LocalSource requires a signer")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	delegatee, req, err := proxy.NewDelegatee(s.Options.Lifetime, s.Options.Variant == gridcert.ProxyLimited)
	if err != nil {
		return nil, err
	}
	reply, err := proxy.HandleDelegation(s.Signer, req, s.Options)
	if err != nil {
		return nil, fmt.Errorf("credman: local delegation: %w", err)
	}
	return delegatee.Accept(reply)
}

// EndpointSource renews against the OGSA delegation port type
// (ogsa.DelegationHandle): the invoke function carries one secured
// operation to the remote service — typically ogsa.Client.InvokeSecure
// or a pkg/gsi exchange scoped to the handle — and the service mints a
// proxy below the credential the subject previously deposited.
type EndpointSource struct {
	// Invoke performs one secured call against the delegation service.
	Invoke func(ctx context.Context, op string, body []byte) ([]byte, error)
	// Lifetime requests the successor's lifetime (the service caps it).
	Lifetime time.Duration
	// Limited requests a limited proxy.
	Limited bool
}

// Renew implements Source.
func (s EndpointSource) Renew(ctx context.Context, _ *gridcert.Credential) (*gridcert.Credential, error) {
	if s.Invoke == nil {
		return nil, errors.New("credman: EndpointSource requires an invoke function")
	}
	delegatee, req, err := proxy.NewDelegatee(s.Lifetime, s.Limited)
	if err != nil {
		return nil, err
	}
	out, err := s.Invoke(ctx, ogsa.DelegationOpRetrieve, req.Encode())
	if err != nil {
		return nil, fmt.Errorf("credman: delegation endpoint: %w", err)
	}
	reply, err := proxy.DecodeDelegationReply(out)
	if err != nil {
		return nil, fmt.Errorf("credman: delegation endpoint reply: %w", err)
	}
	return delegatee.Accept(reply)
}

// DepositRequest encodes the client half of the delegation-endpoint
// deposit flow: ask the service (the delegatee) for a key it generated
// (ogsa.DelegationOpInitiate), sign a proxy over it below cred, and
// hand the reply back (ogsa.DelegationOpDeposit) so the service can
// later mint successors for this subject. maxLifetime bounds proxies
// minted from the deposit; 0 accepts the service default.
func Deposit(ctx context.Context, invoke func(ctx context.Context, op string, body []byte) ([]byte, error), cred *gridcert.Credential, lifetime, maxLifetime time.Duration) error {
	reqBytes, err := invoke(ctx, ogsa.DelegationOpInitiate, wire.NewEncoder().I64(int64(lifetime/time.Second)).Finish())
	if err != nil {
		return fmt.Errorf("credman: deposit initiate: %w", err)
	}
	req, err := proxy.DecodeDelegationRequest(reqBytes)
	if err != nil {
		return fmt.Errorf("credman: deposit request: %w", err)
	}
	reply, err := proxy.HandleDelegation(cred, req, proxy.Options{Lifetime: lifetime})
	if err != nil {
		return fmt.Errorf("credman: deposit signing: %w", err)
	}
	body := wire.NewEncoder().
		Bytes(reply.Encode()).
		I64(int64(maxLifetime / time.Second)).
		Finish()
	if _, err := invoke(ctx, ogsa.DelegationOpDeposit, body); err != nil {
		return fmt.Errorf("credman: deposit: %w", err)
	}
	return nil
}
