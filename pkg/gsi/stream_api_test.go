package gsi_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
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
// authorization pipeline admitting only Alice. Streams ride GT2, so a
// GT3 world serves exchanges only: NewServer refuses a stream handler
// on GT3.
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
	serverOpts := []gsi.Option{
		gsi.WithTransport(transport),
		gsi.WithLocalPolicy(policy),
		gsi.WithGridMap(gm),
	}
	if transport.String() == "gt2" {
		serverOpts = append(serverOpts, gsi.WithStreamHandler(store.handle))
	}
	server, err := tb.env.NewServer(tb.host, serverOpts...)
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

// Streams ride GT2 sessions: every kind of GT3 session refuses to open
// one, and the client goes on to serve an ordinary exchange.
func TestStreamGT3Refused(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []gsi.Option
	}{
		{"conversation", nil},
		{"pooled conversation", []gsi.Option{gsi.WithSessionPool(nil)}},
		{"signed", []gsi.Option{gsi.WithMessageProtection(gsi.ProtectionSigned)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, client, addr, done := streamWorld(t, gsi.TransportGT3(), tc.opts...)
			defer done()
			ctx := context.Background()
			_, err := client.OpenStream(ctx, addr, "upload:/x")
			if err == nil || !strings.Contains(err.Error(), "streams ride GT2 sessions") {
				t.Fatalf("GT3 stream open: err = %v, want a refusal", err)
			}
			if out, err := client.Exchange(ctx, addr, "echo", []byte("after")); err != nil || string(out) != "after" {
				t.Fatalf("exchange after a refused stream: %q %v", out, err)
			}
		})
	}
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

// An identity outside the pipeline's policy cannot open a stream —
// authorization happens before the handler, once, at open.
func TestStreamDenied(t *testing.T) {
	for _, transport := range []gsi.Transport{gsi.TransportGT2()} {
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

// The facade's striped open (gsi.__stream.sopen) is retired: a GT2
// server answers it, whatever its body, as any other reserved op — the
// NotFound status, over an intact record stream — and the same
// connection goes on to serve an ordinary exchange.
func TestRetiredStripedOpenRefused(t *testing.T) {
	_, client, addr, done := streamWorld(t, gsi.TransportGT2())
	defer done()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sess, err := client.Connect(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	bodies := map[string][]byte{
		"empty": nil,
		"well-formed": wire.NewEncoder().Str("upload:/x").Bytes(make([]byte, 16)).
			U32(0).U32(2).Finish(),
		"garbage": []byte("\xff\x00not a striped open"),
	}
	for name, body := range bodies {
		if _, err := sess.Exchange(ctx, "gsi.__stream.sopen", body); !errors.Is(err, gsi.ErrNotFound) {
			t.Fatalf("%s body: err = %v, want ErrNotFound", name, err)
		}
		out, err := sess.Exchange(ctx, "echo", []byte(name))
		if err != nil {
			t.Fatalf("exchange after a refused %s open: %v", name, err)
		}
		if string(out) != name {
			t.Fatalf("echo after a refused %s open = %q", name, out)
		}
	}
}

// The GT3 stream ops (gsi.__stream.open:<b64 op>, .w:<id>, .r:<id>) are
// retired: a GT3 server answers each as any reserved op, with or without
// a pipeline in front of it, the exchange handler never runs for them,
// and the same conversation goes on to serve an ordinary exchange.
func TestRetiredGT3StreamOpsRefused(t *testing.T) {
	policy := gsi.NewPolicy(gsi.Rule{
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"/O=Grid/CN=Alice"},
		Resources: []string{"*"},
		Actions:   []string{"*"},
	})
	for _, tc := range []struct {
		name string
		opts []gsi.Option
	}{
		{"no pipeline", nil},
		{"pipeline", []gsi.Option{gsi.WithLocalPolicy(policy)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t)
			server, err := tb.env.NewServer(tb.host, append([]gsi.Option{gsi.WithTransport(gsi.TransportGT3())}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var served []string
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ep, err := server.Serve(ctx, "127.0.0.1:0", func(ctx context.Context, peer gsi.Peer, op string, body []byte) ([]byte, error) {
				mu.Lock()
				served = append(served, op)
				mu.Unlock()
				return body, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			client, err := tb.env.NewClient(tb.alice, gsi.WithTransport(gsi.TransportGT3()))
			if err != nil {
				t.Fatal(err)
			}
			sess, err := client.Connect(ctx, ep.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			for _, op := range []string{
				"gsi.__stream.open:" + base64.RawURLEncoding.EncodeToString([]byte("upload:/x")),
				"gsi.__stream.w:st-00112233445566778899aabbccddeeff",
				"gsi.__stream.r:st-00112233445566778899aabbccddeeff",
			} {
				if _, err := sess.Exchange(ctx, op, []byte("chunk")); err == nil {
					t.Fatalf("%s accepted", op)
				}
				out, err := sess.Exchange(ctx, "echo", []byte(op))
				if err != nil || string(out) != op {
					t.Fatalf("echo after a refused %s: %q %v", op, out, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if strings.Join(served, ",") != "echo,echo,echo" {
				t.Fatalf("handler ran for %q, want the three echoes only", served)
			}
		})
	}
}
