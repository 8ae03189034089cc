// Race-enabled integration test for the record layer's streaming mode:
// concurrent streams and exchanges share one pooled client while the
// credential manager rotates the client credential mid-flight (PR-3
// RetireCredential). In-flight streams must complete on their
// checked-out sessions, retired sessions must drain instead of parking,
// and post-rotation traffic must run under the successor credential —
// with zero failed operations throughout.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/gsi"
)

func TestStreamsAndExchangesAcrossRotation(t *testing.T) {
	authority, err := gsi.NewCA("/O=Grid/CN=Stream CA", 24*time.Hour)
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
	host, err := authority.NewHostEntity(gsi.MustParseName("/O=Grid/CN=host stream"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// A stream store: upload:<p> collects, download:<p> replays.
	var storeMu sync.Mutex
	files := make(map[string][]byte)
	streamHandler := func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
		switch {
		case strings.HasPrefix(op, "upload:"):
			var buf bytes.Buffer
			if _, err := io.Copy(&buf, st); err != nil {
				return err
			}
			storeMu.Lock()
			files[strings.TrimPrefix(op, "upload:")] = buf.Bytes()
			storeMu.Unlock()
			return nil
		case strings.HasPrefix(op, "download:"):
			storeMu.Lock()
			data := files[strings.TrimPrefix(op, "download:")]
			storeMu.Unlock()
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
	ctx := context.Background()
	ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
		return body, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	initial, err := gsi.NewProxy(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := env.NewCredentialManager(initial,
		gsi.DelegationRenewal(alice, gsi.ProxyOptions{Lifetime: 2 * time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()
	client, err := env.NewClient(nil,
		gsi.WithCredentialManager(cm),
		gsi.WithSessionPool(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Pool().Close()

	payload := make([]byte, 700_000) // 3 chunks, unaligned tail
	for i := range payload {
		payload[i] = byte(i * 17)
	}

	const (
		streamWorkers   = 4
		streamIters     = 5
		exchangeWorkers = 4
		exchangeIters   = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, streamWorkers*streamIters+exchangeWorkers*exchangeIters+2)
	rotated := make(chan struct{})

	// Stream workers: upload then download-and-verify, repeatedly.
	for w := 0; w < streamWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < streamIters; i++ {
				path := fmt.Sprintf("/w%d/it%d", w, i)
				up, err := client.OpenStream(ctx, ep.Addr(), "upload:"+path)
				if err != nil {
					errs <- fmt.Errorf("w%d open up: %w", w, err)
					return
				}
				if _, err := up.Write(payload); err != nil {
					errs <- fmt.Errorf("w%d write: %w", w, err)
					up.Close()
					return
				}
				if err := up.Close(); err != nil {
					errs <- fmt.Errorf("w%d close up: %w", w, err)
					return
				}
				down, err := client.OpenStream(ctx, ep.Addr(), "download:"+path)
				if err != nil {
					errs <- fmt.Errorf("w%d open down: %w", w, err)
					return
				}
				down.CloseWrite()
				var back bytes.Buffer
				if _, err := io.Copy(&back, down); err != nil {
					errs <- fmt.Errorf("w%d read: %w", w, err)
					down.Close()
					return
				}
				if err := down.Close(); err != nil {
					errs <- fmt.Errorf("w%d close down: %w", w, err)
					return
				}
				if !bytes.Equal(back.Bytes(), payload) {
					errs <- fmt.Errorf("w%d it%d: stream corrupted (%d bytes)", w, i, back.Len())
					return
				}
			}
		}(w)
	}

	// Exchange workers share the same pool concurrently.
	for w := 0; w < exchangeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("exchange-%d", w))
			for i := 0; i < exchangeIters; i++ {
				out, err := client.Exchange(ctx, ep.Addr(), "echo", msg)
				if err != nil {
					errs <- fmt.Errorf("x%d: %w", w, err)
					return
				}
				if !bytes.Equal(out, msg) {
					errs <- fmt.Errorf("x%d: corrupted echo", w)
					return
				}
			}
		}(w)
	}

	// Two rotations while traffic is in flight: each retires the old
	// credential's sessions (drain at return) and rekeys the pool.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(rotated)
		for r := 0; r < 2; r++ {
			time.Sleep(30 * time.Millisecond)
			if _, err := cm.Renew(ctx); err != nil {
				errs <- fmt.Errorf("rotation %d: %w", r, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	<-rotated

	// The rotations retired sessions, and the pool served on.
	if cur := client.Credential(); cur.Leaf().Fingerprint() == initial.Leaf().Fingerprint() {
		t.Fatal("credential did not rotate")
	}
	stats := client.Pool().Stats()
	if stats.Retired == 0 {
		t.Fatalf("no sessions retired across rotations: %+v", stats)
	}
	// Post-rotation: a fresh stream and exchange both run under the
	// successor credential.
	st, err := client.OpenStream(ctx, ep.Addr(), "download:/w0/it0")
	if err != nil {
		t.Fatal(err)
	}
	st.CloseWrite()
	var final bytes.Buffer
	if _, err := io.Copy(&final, st); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Bytes(), payload) {
		t.Fatal("post-rotation stream corrupted")
	}
	if _, err := client.Exchange(ctx, ep.Addr(), "final", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}
