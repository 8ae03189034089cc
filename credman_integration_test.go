// Race-enabled integration coverage for the credential lifecycle
// subsystem: a credential rotation in the middle of pooled traffic must
// lose zero exchanges, drain every session established under the
// replaced credential, handshake new sessions under the successor, and
// never reuse a resumption tree bound to the old credential.
package repro

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/gsi"
)

type rotationWorld struct {
	env   *gsi.Environment
	alice *gsi.Credential
	host  *gsi.Credential
}

func newRotationWorld(t testing.TB) rotationWorld {
	t.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=Rotation CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host rotation"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return rotationWorld{env: env, alice: alice, host: host}
}

// peerLog records, per exchange, the fingerprint of the leaf
// certificate the peer authenticated with (GT2 hands the full validated
// chain to the handler).
type peerLog struct {
	mu  sync.Mutex
	fps [][32]byte
}

func (l *peerLog) record(peer gsi.Peer) {
	if len(peer.Chain) == 0 {
		return
	}
	fp := peer.Chain[0].Fingerprint()
	l.mu.Lock()
	l.fps = append(l.fps, fp)
	l.mu.Unlock()
}

func (l *peerLog) snapshot() [][32]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][32]byte(nil), l.fps...)
}

func TestRotationMidTrafficGT2(t *testing.T) {
	w := newRotationWorld(t)
	ctx := context.Background()

	initial, err := gsi.NewProxy(w.alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := w.env.NewCredentialManager(initial,
		gsi.DelegationRenewal(w.alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	log := &peerLog{}
	server, err := w.env.NewServer(w.host)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		log.record(peer)
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	client, err := w.env.NewClient(nil,
		gsi.WithCredentialManager(cm),
		gsi.WithSessionPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	pool := client.Pool()
	defer pool.Close()

	const (
		workers       = 8
		perWorker     = 40
		rotateAfterMs = 15
	)
	var failures atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				msg := []byte(fmt.Sprintf("w%d-%d", g, i))
				out, err := client.Exchange(ctx, ep.Addr(), "echo", msg)
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if string(out) != string(msg) {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("echo mismatch: %q", out))
					return
				}
			}
		}(g)
	}
	close(start)

	// Rotate twice while the workers hammer the pool.
	for r := 0; r < 2; r++ {
		time.Sleep(rotateAfterMs * time.Millisecond)
		if _, err := cm.Renew(ctx); err != nil {
			t.Fatalf("rotation %d: %v", r, err)
		}
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d exchanges failed across rotation (first: %v)", n, firstErr.Load())
	}
	if st := cm.Stats(); st.Rotations != 2 {
		t.Fatalf("rotations = %d, want 2", st.Rotations)
	}

	// Old-fingerprint sessions drained: the pool retired sessions at
	// rotation, and nothing idle may remain under a retired credential —
	// prove it by checking a quiesced exchange handshakes under the
	// successor only.
	if pool.Stats().Retired == 0 {
		t.Fatalf("no sessions were retired across two rotations: %+v", pool.Stats())
	}
	preWave := len(log.snapshot())
	for i := 0; i < 5; i++ {
		if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("post")); err != nil {
			t.Fatalf("post-rotation exchange: %v", err)
		}
	}
	successor := cm.Current().Leaf().Fingerprint()
	if successor == initial.Leaf().Fingerprint() {
		t.Fatal("manager still publishes the initial credential")
	}
	for i, fp := range log.snapshot()[preWave:] {
		if fp != successor {
			t.Fatalf("post-rotation exchange %d authenticated under a retired credential", i)
		}
	}

	// Both generations actually carried traffic during the storm (the
	// rotation happened mid-traffic, not before or after it).
	seen := make(map[[32]byte]bool)
	for _, fp := range log.snapshot() {
		seen[fp] = true
	}
	if !seen[initial.Leaf().Fingerprint()] {
		t.Fatal("no traffic ever ran under the initial credential")
	}
	if !seen[successor] {
		t.Fatal("no traffic ran under the final successor")
	}
}

// The GT3 path across a rotation: conversation-secured exchanges keep
// succeeding, and the first dial after rotation can never resume off
// the retired credential's conversation tree (its cache entries are
// invalidated and its scope is gone from every new key).
func TestRotationMidTrafficGT3(t *testing.T) {
	w := newRotationWorld(t)
	ctx := context.Background()

	initial, err := gsi.NewProxy(w.alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := w.env.NewCredentialManager(initial,
		gsi.DelegationRenewal(w.alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	server, err := w.env.NewServer(w.host, gsi.WithTransport(gsi.TransportGT3()))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	client, err := w.env.NewClient(nil,
		gsi.WithCredentialManager(cm),
		gsi.WithTransport(gsi.TransportGT3()),
		gsi.WithSessionPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	pool := client.Pool()
	defer pool.Close()

	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := client.Exchange(ctx, ep.Addr(), "echo", []byte("x")); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := cm.Renew(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d GT3 exchanges failed across rotation", n)
	}

	// Quiesce, then force two dials under the successor: the first has
	// no cached parent — the old credential's trees were invalidated at
	// rotation and the successor's cache scope starts empty — so of the
	// two dials at most one (the second, off the first's fresh parent)
	// may be a resume.
	resumesBefore := pool.Stats().Resumes
	s1, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := client.Connect(ctx, ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exchange(ctx, "echo", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exchange(ctx, "echo", []byte("b")); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	s2.Close()
	if got := pool.Stats().Resumes - resumesBefore; got > 1 {
		t.Fatalf("%d of 2 post-rotation dials resumed; the first must have bootstrapped fresh", got)
	}
	if st := pool.Stats(); st.Dials == 0 {
		t.Fatalf("expected fresh dials under the successor: %+v", st)
	}
}
