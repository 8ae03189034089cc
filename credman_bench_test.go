// Benchmarks for the credential lifecycle subsystem: what a rotation
// costs the hot path. BenchmarkExchangeSteadyState is pooled traffic
// under one stable credential; BenchmarkExchangeAcrossRotation runs the
// same traffic while the manager rotates the credential every
// rotationPeriod exchanges, forcing pool rekeys and fresh handshakes.
// BENCH_credman.json holds both recorded rows.
package repro

import (
	"context"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// rotationPeriod is how many exchanges separate two rotations in the
// across-rotation benchmark — roughly "a long-running client that
// renews its proxy while staying busy".
const rotationPeriod = 256

type benchRotationWorld struct {
	env    *gsi.Environment
	alice  *gsi.Credential
	client *gsi.Client
	cm     *gsi.CredentialManager
	addr   string
	done   func()
}

func newBenchRotationWorld(b *testing.B, managed bool) *benchRotationWorld {
	b.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=Bench CA", 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		b.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host bench"), 12*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	server, err := env.NewServer(host)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	initial, err := gsi.NewProxy(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	w := &benchRotationWorld{env: env, alice: alice, addr: ep.Addr()}
	opts := []gsi.Option{gsi.WithSessionPool(nil)}
	if managed {
		cm, err := env.NewCredentialManager(initial,
			gsi.DelegationRenewal(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour}))
		if err != nil {
			b.Fatal(err)
		}
		w.cm = cm
		opts = append(opts, gsi.WithCredentialManager(cm))
		w.client, err = env.NewClient(nil, opts...)
		if err != nil {
			b.Fatal(err)
		}
	} else {
		w.client, err = env.NewClient(initial, opts...)
		if err != nil {
			b.Fatal(err)
		}
	}
	w.done = func() {
		w.client.Pool().Close()
		if w.cm != nil {
			w.cm.Close()
		}
		ep.Close()
	}
	return w
}

// BenchmarkExchangeSteadyState is the baseline: pooled exchanges under
// one credential, no rotations (every call after the first reuses the
// pooled session).
func BenchmarkExchangeSteadyState(b *testing.B) {
	w := newBenchRotationWorld(b, false)
	defer w.done()
	ctx := context.Background()
	payload := []byte("steady")
	if _, err := w.client.Exchange(ctx, w.addr, "echo", payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.client.Exchange(ctx, w.addr, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeAcrossRotation interleaves rotations with traffic:
// every rotationPeriod exchanges the manager publishes a successor,
// retiring the pool's sessions and invalidating resumption state, so
// the next exchange pays a full handshake. The per-op delta against
// steady state is the amortized cost of non-disruptive rotation.
func BenchmarkExchangeAcrossRotation(b *testing.B) {
	w := newBenchRotationWorld(b, true)
	defer w.done()
	ctx := context.Background()
	payload := []byte("rotate")
	if _, err := w.client.Exchange(ctx, w.addr, "echo", payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rotations := 0
	for i := 0; i < b.N; i++ {
		if i%rotationPeriod == rotationPeriod-1 {
			b.StopTimer() // rotation itself is background work …
			if _, err := w.cm.Renew(ctx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer() // … but its fallout (rekeyed pool) is timed
			rotations++
		}
		if _, err := w.client.Exchange(ctx, w.addr, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rotations), "rotations")
}
