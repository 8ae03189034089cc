package gsi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/telemetry"
)

// Environment is the ambient security world a process operates in: the
// trust roots it accepts and the clock it validates against. Clients
// and Servers are constructed from an Environment so that every
// handshake and every chain validation in the process agrees on both.
//
//	env, _ := gsi.NewEnvironment(gsi.WithRoots(caCert))
//	client, _ := env.NewClient(cred)
//	server, _ := env.NewServer(hostCred)
type Environment struct {
	trust *gridcert.TrustStore
	now   func() time.Time

	// id is a process-unique random tag naming this environment in
	// string-keyed caches (the secure-conversation resumption cache),
	// where a pointer would be unsound across GC address reuse.
	id string

	series []telemetry.Metric // trustMetrics
}

// EnvOption configures NewEnvironment.
type EnvOption func(*Environment) error

// WithRoots installs trusted CA roots into the environment's store.
func WithRoots(roots ...*Certificate) EnvOption {
	return func(e *Environment) error {
		for _, r := range roots {
			if err := e.trust.AddRoot(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// WithClock overrides the validation clock (tests, replay of recorded
// traffic).
func WithClock(now func() time.Time) EnvOption {
	return func(e *Environment) error {
		if now == nil {
			return errors.New("gsi: nil clock")
		}
		e.now = now
		return nil
	}
}

// NewEnvironment builds an Environment. With no options it has an empty
// trust store (add roots later via Trust().AddRoot) and the system
// clock.
func NewEnvironment(opts ...EnvOption) (*Environment, error) {
	tag, err := gridcrypto.RandomBytes(8)
	if err != nil {
		return nil, opErr("gsi.NewEnvironment", err)
	}
	e := &Environment{
		trust: gridcert.NewTrustStore(),
		now:   time.Now,
		id:    fmt.Sprintf("env-%x", tag),
	}
	e.series = e.trustMetrics()
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, opErr("gsi.NewEnvironment", err)
		}
	}
	return e, nil
}

// Trust returns the environment's trust store.
func (e *Environment) Trust() *TrustStore { return e.trust }

// Now returns the environment's current time.
func (e *Environment) Now() time.Time { return e.now() }
