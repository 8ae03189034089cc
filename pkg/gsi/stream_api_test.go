package gsi_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// streamStore is the stream handler both transports are driven
// against: "upload" consumes the client's bytes into a map, "download"
// streams stored bytes back, "mirror" echoes the inbound stream to the
// outbound half, "fail" reads a little and then errors mid-stream.
type streamStore struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newStreamStore() *streamStore { return &streamStore{files: make(map[string][]byte)} }

func (s *streamStore) handle(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
	switch {
	case strings.HasPrefix(op, "upload:"):
		var buf bytes.Buffer
		if _, err := io.Copy(&buf, st); err != nil {
			return err
		}
		s.mu.Lock()
		s.files[strings.TrimPrefix(op, "upload:")] = buf.Bytes()
		s.mu.Unlock()
		return nil
	case strings.HasPrefix(op, "download:"):
		s.mu.Lock()
		data, ok := s.files[strings.TrimPrefix(op, "download:")]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("no such file")
		}
		if _, err := st.Write(data); err != nil {
			return err
		}
		return nil
	case op == "mirror":
		_, err := io.Copy(st, st)
		return err
	case op == "fail":
		var scratch [1024]byte
		st.Read(scratch[:])
		return errors.New("handler exploded mid-stream")
	default:
		return fmt.Errorf("no such stream op %q", op)
	}
}

// streamWorld serves the streamStore over one transport with an
// authorization pipeline admitting only Alice.
func streamWorld(t *testing.T, transport gsi.Transport, clientOpts ...gsi.Option) (*streamStore, *gsi.Client, string, func()) {
	t.Helper()
	tb := newTestbed(t)
	store := newStreamStore()
	policy := gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
	})
	gm := gsi.NewGridMap()
	gm.Add(gsi.MustParseName("/O=Grid/CN=Alice"), "alice")
	server, err := tb.env.NewServer(tb.host,
		gsi.WithTransport(transport),
		gsi.WithStreamHandler(store.handle),
		gsi.WithLocalPolicy(policy),
		gsi.WithGridMap(gm),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	client, err := tb.env.NewClient(tb.alice, append([]gsi.Option{gsi.WithTransport(transport)}, clientOpts...)...)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return store, client, ep.Addr(), func() {
		if p := client.Pool(); p != nil {
			p.Close()
		}
		ep.Close()
		cancel()
	}
}

func streamRoundTrip(t *testing.T, transport gsi.Transport, clientOpts ...gsi.Option) {
	t.Helper()
	store, client, addr, done := streamWorld(t, transport, clientOpts...)
	defer done()
	ctx := context.Background()

	payload := make([]byte, 1_200_000) // several chunks, unaligned tail
	for i := range payload {
		payload[i] = byte(i * 13)
	}

	// Upload: write half carries data, read half only the FIN.
	up, err := client.OpenStream(ctx, addr, "upload:/data/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := up.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	stored := store.files["/data/a"]
	store.mu.Unlock()
	if !bytes.Equal(stored, payload) {
		t.Fatalf("upload corrupted: stored %d bytes", len(stored))
	}

	// Download it back on a fresh stream.
	down, err := client.OpenStream(ctx, addr, "download:/data/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := down.CloseWrite(); err != nil { // nothing to send
		t.Fatal(err)
	}
	var back bytes.Buffer
	if _, err := io.Copy(&back, down); err != nil {
		t.Fatal(err)
	}
	if err := down.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), payload) {
		t.Fatalf("download corrupted: %d bytes", back.Len())
	}

	// Ordinary exchanges still work on the same client afterwards.
	out, err := client.Exchange(ctx, addr, "echo", []byte("post-stream"))
	if err != nil || string(out) != "post-stream" {
		t.Fatalf("post-stream exchange: %q %v", out, err)
	}

	// A handler failure surfaces as a stream error on the reader.
	fail, err := client.OpenStream(ctx, addr, "fail")
	if err != nil {
		t.Fatal(err)
	}
	fail.Write([]byte("some input"))
	fail.CloseWrite()
	_, err = io.Copy(io.Discard, fail)
	if err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("handler failure not surfaced: %v", err)
	}
	fail.Close()

	// The pipeline still gates streams: an op form the handler knows
	// but policy denies never reaches it. (Deny is proven with Bob in
	// TestStreamDenied; here prove invalid/reserved ops are refused.)
	if _, err := client.OpenStream(ctx, addr, "gsi.__stream.open"); err == nil {
		t.Fatal("reserved op accepted as stream op")
	}
}

func TestStreamGT2(t *testing.T) { streamRoundTrip(t, gsi.TransportGT2()) }
func TestStreamGT2Pooled(t *testing.T) {
	streamRoundTrip(t, gsi.TransportGT2(), gsi.WithSessionPool(nil))
}
func TestStreamGT3(t *testing.T) { streamRoundTrip(t, gsi.TransportGT3()) }
func TestStreamGT3Pooled(t *testing.T) {
	streamRoundTrip(t, gsi.TransportGT3(), gsi.WithSessionPool(nil))
}

// Duplex mirror on GT2: both halves busy at once.
func TestStreamMirrorGT2(t *testing.T) {
	_, client, addr, done := streamWorld(t, gsi.TransportGT2())
	defer done()
	ctx := context.Background()
	st, err := client.OpenStream(ctx, addr, "mirror")
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("ping-pong "), 50_000)
	errc := make(chan error, 1)
	go func() {
		if _, err := st.Write(msg); err != nil {
			errc <- err
			return
		}
		errc <- st.CloseWrite()
	}()
	var got bytes.Buffer
	if _, err := io.Copy(&got, st); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("mirror corrupted: %d bytes", got.Len())
	}
}

// An identity outside the pipeline's policy cannot open a stream on
// either transport — authorization happens before the handler, once,
// at open.
func TestStreamDenied(t *testing.T) {
	for _, transport := range []gsi.Transport{gsi.TransportGT2(), gsi.TransportGT3()} {
		t.Run(transport.String(), func(t *testing.T) {
			tb := newTestbed(t)
			bob, err := tb.ca.NewEntity(gsi.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			store := newStreamStore()
			policy := gsi.NewPolicy(gsi.Rule{
				Effect:    gsi.EffectPermit,
				Subjects:  []string{"/O=Grid/CN=Alice"},
				Resources: []string{"*"},
				Actions:   []string{"*"},
			})
			gm := gsi.NewGridMap()
			gm.Add(gsi.MustParseName("/O=Grid/CN=Alice"), "alice")
			server, err := tb.env.NewServer(tb.host,
				gsi.WithTransport(transport),
				gsi.WithStreamHandler(store.handle),
				gsi.WithLocalPolicy(policy),
				gsi.WithGridMap(gm),
			)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			ep, err := server.Serve(ctx, "127.0.0.1:0", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			client, err := tb.env.NewClient(bob, gsi.WithTransport(transport))
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.OpenStream(ctx, ep.Addr(), "upload:/x")
			if err == nil {
				t.Fatal("unauthorized stream open accepted")
			}
			if !errors.Is(err, gsi.ErrUnauthorized) {
				t.Fatalf("deny classified as %v", err)
			}
		})
	}
}

// ProtectionSigned sessions are stateless and refuse streams.
func TestStreamSignedRefused(t *testing.T) {
	_, client, addr, done := streamWorld(t, gsi.TransportGT3(),
		gsi.WithMessageProtection(gsi.ProtectionSigned))
	defer done()
	_, err := client.OpenStream(context.Background(), addr, "upload:/x")
	if err == nil {
		t.Fatal("signed session accepted a stream")
	}
}

// A striped open holds all K checkouts at once. On a pool capped below
// K the surplus checkout used to queue at the cap for a session only
// this same call could give back — until the context ended, forever
// without a deadline — with the stripes already bound parked on the
// server. It must be refused before the first checkout.
func TestStripedOpenBeyondPoolCapFailsFast(t *testing.T) {
	_, client, addr, done := streamWorld(t, gsi.TransportGT2(),
		gsi.WithSessionPool(nil), gsi.WithMaxConcurrentPerHost(2))
	defer done()
	const deadline = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	st, err := client.OpenStripedStream(ctx, addr, "mirror", 4)
	if err == nil {
		st.Close()
		t.Fatal("4 stripes opened through a pool capped at 2 sessions per host")
	}
	if !errors.Is(err, gsi.ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
	if waited := time.Since(start); waited > deadline/2 {
		t.Fatalf("refused only after queueing at the cap for %v", waited)
	}
	if s := client.Pool().Stats(); s.Dials != 0 {
		t.Fatalf("%d sessions dialed for an open that could never complete", s.Dials)
	}
}

// slowDialProxy relays TCP to backend, holding every new connection for
// delay first: handshakes through it are slow, so concurrent callers'
// dials reliably overlap.
func slowDialProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer client.Close()
				time.Sleep(delay)
				server, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer server.Close()
				go io.Copy(server, client)
				io.Copy(client, server)
			}()
		}
	}()
	return ln.Addr().String()
}

// Two striped opens under one pool key whose stripes together exceed the
// per-host cap: each holds its checkouts while it waits for more, so
// opens that interleave their checkouts (slow handshakes make them) used
// to each hold part of the cap and wait for the rest until their
// contexts ended. One open collects its sessions at a time; both
// transfers complete.
func TestConcurrentStripedOpensShareCap(t *testing.T) {
	store, client, addr, done := streamWorld(t, gsi.TransportGT2(),
		gsi.WithSessionPool(nil), gsi.WithMaxConcurrentPerHost(4))
	defer done()
	addr = slowDialProxy(t, addr, 20*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload := bytes.Repeat([]byte("stripe"), 100_000)
	start := time.Now()
	errs := make(chan error, 2)
	for _, path := range []string{"/a", "/b"} {
		go func() {
			st, err := client.OpenStripedStream(ctx, addr, "upload:"+path, 3)
			if err != nil {
				errs <- fmt.Errorf("open %s: %w", path, err)
				return
			}
			_, werr := st.Write(payload)
			errs <- errors.Join(werr, st.Close())
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("two 3-stripe transfers under a cap of 4 took %v", took)
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	for _, path := range []string{"/a", "/b"} {
		if !bytes.Equal(store.files[path], payload) {
			t.Fatalf("upload %s stored %d bytes, want %d", path, len(store.files[path]), len(payload))
		}
	}
}
