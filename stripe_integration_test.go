// Race-enabled integration test for the striped data plane (PR 7): a
// 64 MiB transfer fanned over K=4 parallel stripe sessions from the
// shared pool, with the credential manager rotating the client
// credential mid-flight — and, separately, a stripe killed mid-transfer
// by an interposed TCP proxy. A dead stripe must surface as an error on
// both ends; the FIN-trailer protocol makes silent truncation
// impossible.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/gsi"
)

const stripedTransferSize = 64 << 20

// stripedWorld is the shared fixture: CA, environment, one streaming
// endpoint, and a pooled client with a rotating credential manager.
type stripedWorld struct {
	env    *gsi.Environment
	ep     gsi.Endpoint
	client *gsi.Client
	cm     *gsi.CredentialManager

	mu      sync.Mutex
	files   map[string][]byte
	upErrs  map[string]error
	initial *gsi.Credential
}

func newStripedWorld(t *testing.T) *stripedWorld {
	t.Helper()
	authority, err := gsi.NewCA("/O=Grid/CN=Stripe CA", 24*time.Hour)
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
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host stripe"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	w := &stripedWorld{
		env:    env,
		files:  make(map[string][]byte),
		upErrs: make(map[string]error),
	}
	streamHandler := func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
		switch {
		case strings.HasPrefix(op, "upload:"):
			path := strings.TrimPrefix(op, "upload:")
			var buf bytes.Buffer
			_, err := io.Copy(&buf, st)
			w.mu.Lock()
			defer w.mu.Unlock()
			if err != nil {
				// Record the failure; a failed upload must never store.
				w.upErrs[path] = err
				return err
			}
			w.files[path] = buf.Bytes()
			return nil
		case strings.HasPrefix(op, "download:"):
			w.mu.Lock()
			data := w.files[strings.TrimPrefix(op, "download:")]
			w.mu.Unlock()
			if data == nil {
				return fmt.Errorf("no such file")
			}
			_, err := st.Write(data)
			return err
		}
		return fmt.Errorf("unknown stream op %q", op)
	}

	server, err := env.NewServer(host, gsi.WithStreamHandler(streamHandler))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := server.Serve(context.Background(), "127.0.0.1:0",
		func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
			return body, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	w.ep = ep

	initial, err := gsi.NewProxy(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	w.initial = initial
	cm, err := env.NewCredentialManager(initial,
		gsi.DelegationRenewal(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cm.Close() })
	w.cm = cm
	client, err := env.NewClient(nil,
		gsi.WithCredentialManager(cm),
		gsi.WithSessionPool(nil),
		gsi.WithMaxConcurrentPerHost(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Pool().Close() })
	w.client = client
	return w
}

func stripedTransferPayload() []byte {
	payload := make([]byte, stripedTransferSize)
	for i := range payload {
		payload[i] = byte(i*2654435761 + i>>13)
	}
	return payload
}

// 64 MiB up and back down over K=4 stripes while the credential
// rotates mid-transfer: zero failed operations, retired sessions, and
// post-rotation traffic under the successor credential.
func TestStripedTransferAcrossRotation(t *testing.T) {
	w := newStripedWorld(t)
	ctx := context.Background()
	payload := stripedTransferPayload()

	// Rotate while the upload is in flight.
	rotated := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		_, err := w.cm.Renew(ctx)
		rotated <- err
	}()

	up, err := w.client.OpenStripedStream(ctx, w.ep.Addr(), "upload:/big", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Write(payload); err != nil {
		t.Fatalf("striped write: %v", err)
	}
	if err := up.Close(); err != nil {
		t.Fatalf("striped close: %v", err)
	}
	if err := <-rotated; err != nil {
		t.Fatalf("rotation: %v", err)
	}

	down, err := w.client.OpenStripedStream(ctx, w.ep.Addr(), "download:/big", 4)
	if err != nil {
		t.Fatal(err)
	}
	down.CloseWrite()
	var back bytes.Buffer
	back.Grow(stripedTransferSize)
	if _, err := io.Copy(&back, down); err != nil {
		t.Fatalf("striped read: %v", err)
	}
	if err := down.Close(); err != nil {
		t.Fatalf("striped close down: %v", err)
	}
	if !bytes.Equal(back.Bytes(), payload) {
		t.Fatalf("striped round trip corrupted (%d bytes back)", back.Len())
	}

	if cur := w.client.Credential(); cur.Leaf().Fingerprint() == w.initial.Leaf().Fingerprint() {
		t.Fatal("credential did not rotate")
	}
	if stats := w.client.Pool().Stats(); stats.Retired == 0 {
		t.Fatalf("no sessions retired across rotation: %+v", stats)
	}
	// The pool still serves ordinary traffic after the striped work.
	if _, err := w.client.Exchange(ctx, w.ep.Addr(), "final", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// stripeKillerProxy relays TCP between the client and the endpoint,
// counting client→server bytes per connection, and hard-kills the
// first connection that ships more than killAfter — simulating one
// stripe of a parallel transfer dying mid-flight.
type stripeKillerProxy struct {
	ln        net.Listener
	backend   string
	killAfter int64
	killed    atomic.Bool
	wg        sync.WaitGroup
}

func newStripeKillerProxy(t *testing.T, backend string, killAfter int64) *stripeKillerProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stripeKillerProxy{ln: ln, backend: backend, killAfter: killAfter}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close(); p.wg.Wait() })
	return p
}

func (p *stripeKillerProxy) Addr() string { return p.ln.Addr().String() }

func (p *stripeKillerProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.relay(c)
	}
}

func (p *stripeKillerProxy) relay(client net.Conn) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	var once sync.Once
	closeBoth := func() { client.Close(); server.Close() }
	var sent int64
	var inner sync.WaitGroup
	inner.Add(2)
	go func() { // client → server, metered
		defer inner.Done()
		buf := make([]byte, 32<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				sent += int64(n)
				if _, werr := server.Write(buf[:n]); werr != nil {
					break
				}
				// First connection past the threshold dies abruptly:
				// one stripe of the transfer is gone.
				if sent > p.killAfter && p.killed.CompareAndSwap(false, true) {
					once.Do(closeBoth)
					break
				}
			}
			if err != nil {
				break
			}
		}
		once.Do(func() { client.Close(); server.Close() })
	}()
	go func() { // server → client, plain
		defer inner.Done()
		io.Copy(client, server)
		once.Do(closeBoth)
	}()
	inner.Wait()
}

// A stripe killed mid-upload must error on both ends — the client's
// striped stream fails, the server handler fails, and the file is
// never stored. Truncation is structurally impossible: every stripe
// must FIN with the transfer's total chunk count before the server
// accepts it.
func TestStripedTransferDeadStripeNeverTruncates(t *testing.T) {
	w := newStripedWorld(t)
	ctx := context.Background()
	payload := stripedTransferPayload()

	// Kill the first connection that ships > 4 MiB: only a data stripe
	// ever crosses that line (handshakes and control traffic are tiny),
	// and each of the 4 stripes carries ~16 MiB.
	proxy := newStripeKillerProxy(t, w.ep.Addr(), 4<<20)

	up, err := w.client.OpenStripedStream(ctx, proxy.Addr(), "upload:/doomed", 4)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := up.Write(payload)
	cerr := up.Close()
	if werr == nil && cerr == nil {
		t.Fatal("transfer with a killed stripe reported success")
	}
	if !proxy.killed.Load() {
		t.Fatal("proxy never killed a stripe; test proved nothing")
	}

	// Give the server a beat to finish failing its side.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		_, stored := w.files["/doomed"]
		herr := w.upErrs["/doomed"]
		w.mu.Unlock()
		if stored {
			t.Fatal("server stored a truncated file")
		}
		if herr != nil {
			break // server saw the dead stripe
		}
		if time.Now().After(deadline) {
			t.Fatal("server handler never observed the dead stripe")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The pool discards the broken stripe sessions; fresh traffic to
	// the real endpoint still works.
	if _, err := w.client.Exchange(ctx, w.ep.Addr(), "after", []byte("ok")); err != nil {
		t.Fatalf("pool unusable after dead stripe: %v", err)
	}
}
