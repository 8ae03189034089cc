// Package myproxy implements an online credential repository in the
// style of MyProxy, the companion service deployed alongside GSI: a user
// delegates a medium-lived proxy credential to the repository; later —
// possibly from another machine, a web portal, or a job — they
// authenticate with a passphrase and receive a fresh short-lived proxy
// delegated from the stored one. Private keys never leave the party that
// generated them: storage and retrieval both use the GSI delegation
// exchange.
package myproxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/proxy"
)

// DefaultMaxLifetime bounds retrieved proxies (MyProxy's default is 12h).
const DefaultMaxLifetime = 12 * time.Hour

// maxFailures locks an entry after this many consecutive bad passphrases.
const maxFailures = 5

// Errors.
var (
	ErrNotFound      = errors.New("myproxy: no stored credential")
	ErrBadPassphrase = errors.New("myproxy: bad passphrase")
	ErrLocked        = errors.New("myproxy: entry locked after repeated failures")
	ErrExpired       = errors.New("myproxy: stored credential expired")
)

type entry struct {
	cred        *gridcert.Credential
	passHash    []byte
	salt        []byte
	maxLifetime time.Duration
	failures    int
}

// Server is the credential repository.
type Server struct {
	mu      sync.Mutex
	entries map[string]*entry
	now     func() time.Time // the repository clock; tests move it
}

// NewServer creates an empty repository.
func NewServer() *Server {
	return &Server{entries: make(map[string]*entry), now: time.Now}
}

func hashPass(pass string, salt []byte) []byte {
	h, err := gridcrypto.DeriveKey([]byte(pass), salt, []byte("myproxy passphrase"), 32)
	if err != nil {
		panic("myproxy: passphrase hashing cannot fail: " + err.Error())
	}
	return h
}

// StoreContext deposits a credential under a username and passphrase.
// The credential should be a medium-lived proxy delegated specifically
// for the repository (the caller creates it with proxy.New). maxLifetime
// bounds proxies later retrieved; 0 means DefaultMaxLifetime. The
// (deliberately slow) passphrase derivation is skipped when ctx has
// already ended.
func (s *Server) StoreContext(ctx context.Context, username, passphrase string, cred *gridcert.Credential, maxLifetime time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if username == "" || passphrase == "" {
		return errors.New("myproxy: username and passphrase required")
	}
	if maxLifetime <= 0 {
		maxLifetime = DefaultMaxLifetime
	}
	salt, err := gridcrypto.RandomBytes(16)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[username] = &entry{
		cred:        cred,
		passHash:    hashPass(passphrase, salt),
		salt:        salt,
		maxLifetime: maxLifetime,
	}
	return nil
}

// RetrieveContext authenticates by passphrase and answers a delegation
// request: the client generated a key pair locally (proxy.NewDelegatee)
// and the repository signs a short-lived proxy below the stored
// credential. The passphrase check and the delegation signing are both
// skipped once ctx ends.
func (s *Server) RetrieveContext(ctx context.Context, username, passphrase string, req proxy.DelegationRequest) (proxy.DelegationReply, error) {
	if err := ctx.Err(); err != nil {
		return proxy.DelegationReply{}, err
	}
	s.mu.Lock()
	e, ok := s.entries[username]
	if !ok {
		s.mu.Unlock()
		return proxy.DelegationReply{}, ErrNotFound
	}
	if e.failures >= maxFailures {
		s.mu.Unlock()
		return proxy.DelegationReply{}, ErrLocked
	}
	if !gridcrypto.HMACEqual(e.passHash, hashPass(passphrase, e.salt)) {
		e.failures++
		s.mu.Unlock()
		return proxy.DelegationReply{}, ErrBadPassphrase
	}
	e.failures = 0
	cred := e.cred
	maxLifetime := e.maxLifetime
	now := s.now()
	s.mu.Unlock()

	if now.After(cred.Leaf().NotAfter) {
		return proxy.DelegationReply{}, ErrExpired
	}
	if err := ctx.Err(); err != nil {
		return proxy.DelegationReply{}, err
	}
	opts := proxy.Options{Lifetime: maxLifetime}
	if req.Lifetime > 0 && req.Lifetime < maxLifetime {
		opts.Lifetime = req.Lifetime
	}
	reply, err := proxy.HandleDelegation(cred, proxy.DelegationRequest{
		PublicKey: req.PublicKey,
		Limited:   req.Limited,
	}, opts)
	if err != nil {
		return proxy.DelegationReply{}, fmt.Errorf("myproxy: delegating: %w", err)
	}
	return reply, nil
}

// Len reports the number of stored credentials.
func (s *Server) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
