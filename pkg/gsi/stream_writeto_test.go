package gsi_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/pkg/gsi"
)

// writeToWorld serves handler on a GT2 server admitting Alice, traced
// when traced is, and returns the server, the endpoint and a client
// built with opts.
func writeToWorld(t *testing.T, traced bool, handler gsi.StreamHandler, opts ...gsi.Option) (*gsi.Server, string, *gsi.Client) {
	t.Helper()
	tb := newTestbed(t)
	policy := gsi.NewPolicy(gsi.Rule{
		Effect: gsi.EffectPermit, Subjects: []string{"/O=Grid/CN=Alice"},
		Resources: []string{"*"}, Actions: []string{"*"},
	})
	serverOpts := []gsi.Option{gsi.WithLocalPolicy(policy), gsi.WithStreamHandler(handler)}
	if traced {
		serverOpts = append(serverOpts, gsi.WithTracing())
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
	client, err := tb.env.NewClient(tb.alice, opts...)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p := client.Pool(); p != nil {
			p.Close()
		}
		ep.Close()
		cancel()
	})
	return server, ep.Addr(), client
}

// spanBytes totals the bytes of the recorded spans of op.
func spanBytes(tr *gsi.Tracer, op string) (n int64) {
	for _, sp := range tr.Recorder().Snapshot(gsi.TraceQuery{Op: op}) {
		n += sp.Bytes
	}
	return n
}

// Every facade stream, client side (plain, pooled, traced) and the
// handler's (traced and not), is an io.WriterTo: io.Copy out of one
// hands the destination each payload from its record buffer instead of
// copying it through a buffer of its own. The bytes are the stream's,
// and a traced stream counts them.
func TestStreamWriteTo(t *testing.T) {
	payload := make([]byte, 300_000) // several chunks, unaligned tail
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name   string
		traced bool
		opts   []gsi.Option
	}{
		{"plain", false, nil},
		{"pooled", false, []gsi.Option{gsi.WithSessionPool(nil)}},
		{"traced", true, []gsi.Option{gsi.WithTracing()}},
		{"pooled traced", true, []gsi.Option{gsi.WithSessionPool(nil), gsi.WithTracing()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got bytes.Buffer
			var handlerWT bool
			server, addr, client := writeToWorld(t, tc.traced, func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
				if op == "download" {
					_, err := st.Write(payload)
					return err
				}
				_, handlerWT = st.(io.WriterTo)
				_, err := io.Copy(&got, st)
				return err
			}, tc.opts...)
			ctx := context.Background()

			up, err := client.OpenStream(ctx, addr, "upload")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := up.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := up.Close(); err != nil {
				t.Fatal(err)
			}
			if !handlerWT {
				t.Fatal("the handler's stream is not an io.WriterTo")
			}
			if !bytes.Equal(got.Bytes(), payload) {
				t.Fatalf("upload: handler got %d bytes, want %d", got.Len(), len(payload))
			}
			if tr := server.Tracer(); tr != nil {
				if n := spanBytes(tr, "server.stream"); n != int64(len(payload)) {
					t.Fatalf("server.stream span counts %d bytes, want %d", n, len(payload))
				}
			}

			down, err := client.OpenStream(ctx, addr, "download")
			if err != nil {
				t.Fatal(err)
			}
			wt, ok := down.(io.WriterTo)
			if !ok {
				t.Fatalf("client stream %T is not an io.WriterTo", down)
			}
			var back bytes.Buffer
			n, err := wt.WriteTo(&back)
			if err != nil || n != int64(len(payload)) || !bytes.Equal(back.Bytes(), payload) {
				t.Fatalf("WriteTo = %d, %v; got %d bytes, want %d", n, err, back.Len(), len(payload))
			}
			if err := down.Close(); err != nil {
				t.Fatal(err)
			}
			if tr := client.Tracer(); tr != nil {
				// The upload's written bytes and the download's read ones.
				if n := spanBytes(tr, "client.stream"); n != 2*int64(len(payload)) {
					t.Fatalf("client.stream spans count %d bytes, want %d", n, 2*len(payload))
				}
			}
		})
	}
}

// A peer's mid-stream abort ends WriteTo with the error Read reports.
func TestStreamWriteToPeerAbort(t *testing.T) {
	_, addr, client := writeToWorld(t, false, func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
		st.Write([]byte("partial"))
		return errors.New("handler exploded mid-stream")
	})
	drain := func(viaWriteTo bool) error {
		st, err := client.OpenStream(context.Background(), addr, "fail")
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if viaWriteTo {
			_, err = st.(io.WriterTo).WriteTo(io.Discard)
		} else {
			_, err = io.Copy(io.Discard, struct{ io.Reader }{st})
		}
		return err
	}
	readErr, writeToErr := drain(false), drain(true)
	var ge *gsi.Error
	if writeToErr == nil || !errors.As(writeToErr, &ge) {
		t.Fatalf("WriteTo after a peer abort: %v, want a *gsi.Error", writeToErr)
	}
	if readErr == nil || readErr.Error() != writeToErr.Error() {
		t.Fatalf("Read reports %v, WriteTo %v", readErr, writeToErr)
	}
}

// A connection cut before the peer's FIN is an error from WriteTo, never
// a clean end: the client writes part of an upload and is cancelled, so
// no FIN follows, and its session closes under the handler.
func TestStreamWriteToCutBeforeFIN(t *testing.T) {
	result := make(chan error, 1)
	_, addr, client := writeToWorld(t, true, func(ctx context.Context, peer gsi.Peer, op string, st gsi.Stream) error {
		_, err := io.Copy(io.Discard, st)
		result <- err
		return err
	})
	ctx, cancel := context.WithCancel(context.Background())
	st, err := client.OpenStream(ctx, addr, "upload")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(make([]byte, 100_000)); err != nil {
		t.Fatal(err)
	}
	cancel()
	st.Close()
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("a stream cut before FIN ended cleanly")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the handler's WriteTo did not return after the cut")
	}
}
