package gsitransport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"

	"repro/internal/gridcrypto"
	"repro/internal/gss"
	"repro/internal/israce"
	"repro/internal/record"
)

// Tests for the chunk token: its header travels in the clear, bound as
// associated data; a chunk is sealed from the writer's bytes and opened
// straight into ReadAll's slice.

// flipConn flips one byte of what is written through it, at offset at
// of the bytes written after arm; at < 0 writes everything unchanged.
// arm must happen before the writes it governs.
type flipConn struct {
	net.Conn
	at, off int
}

func (f *flipConn) arm(at int) { f.at, f.off = at, 0 }

func (f *flipConn) Write(p []byte) (int, error) {
	if i := f.at - f.off; f.at >= 0 && i >= 0 && i < len(p) {
		p = bytes.Clone(p)
		p[i] ^= 0x01
	}
	f.off += len(p)
	return f.Conn.Write(p)
}

// flipPair is pipePair with the client's writes passing a flipConn.
func flipPair(t *testing.T, creds bedCreds) (client, server *Conn, flip *flipConn) {
	t.Helper()
	cRaw, sRaw := net.Pipe()
	flip = &flipConn{Conn: cRaw, at: -1}
	done := make(chan error, 1)
	go func() {
		var err error
		server, err = Server(sRaw, gss.Config{Credential: creds.host, TrustStore: creds.ts})
		done <- err
	}()
	client, err := Client(flip, gss.Config{Credential: creds.alice, TrustStore: creds.ts})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server handshake: %v", err)
	}
	return client, server, flip
}

// Flipping any byte of a chunk's clear header on the wire fails that
// record: nothing of it is delivered, the transfer errors, and the
// connection is broken — read by ReadAll, which opens DATA straight into
// its slice, and by Read, which opens in place.
func TestChunkHeaderTamperFailsRecord(t *testing.T) {
	creds := newCreds(t)
	payload := bytes.Repeat([]byte("header bound "), 100)
	for i := 0; i < record.ChunkHeader; i++ {
		for _, viaReadAll := range []bool{true, false} {
			client, server, flip := flipPair(t, creds)
			flip.arm(Headroom + i)
			go func() {
				st := NewStream(context.Background(), client)
				st.Write(payload)
				st.CloseWrite()
			}()
			st := NewStream(context.Background(), server)
			var got []byte
			var err error
			if viaReadAll {
				got, err = st.ReadAll(0)
			} else {
				var n int
				n, err = st.Read(make([]byte, len(payload)))
				got = payload[:n]
			}
			if err == nil || len(got) != 0 || !server.Broken() {
				t.Fatalf("header byte %d flipped (ReadAll %v): %d bytes delivered, err %v, broken %v", i, viaReadAll, len(got), err, server.Broken())
			}
			client.Close()
			server.Close()
		}
	}
}

// A message record injected mid-stream fails authentication as a chunk
// record, even in sequence: the two kinds are sealed under different
// associated data.
func TestMessageRecordMidStreamFailsAuth(t *testing.T) {
	creds := newCreds(t)
	client, server := pipePair(t, creds)
	defer client.Close()
	defer server.Close()
	first := bytes.Repeat([]byte{0xAB}, 1000)
	go func() {
		st := NewStream(context.Background(), client)
		st.Write(first)
		client.Send(bytes.Repeat([]byte{1}, 100)) // in sequence, wrong kind
		st.CloseWrite()
	}()
	got, err := NewStream(context.Background(), server).ReadAll(0)
	if !errors.Is(err, gridcrypto.ErrOpenFailed) || !bytes.Equal(got, first) || !server.Broken() {
		t.Fatalf("message record mid-stream: %d bytes, err %v, broken %v", len(got), err, server.Broken())
	}
}

// Write seals from the caller's slice and returns only once it is
// sealed: overwriting the source afterwards leaves the peer's bytes
// unchanged, on the small, the pipelined and the striped path.
func TestStripedAndBulkWriteSourceReusable(t *testing.T) {
	creds := newCreds(t)
	for _, tc := range []struct {
		name  string
		k, n  int
		write int // bytes per Write
	}{
		{"small", 1, 3*record.DefaultChunkSize + 5, record.DefaultChunkSize + 1},
		{"pipelined", 1, 2 * bulkWriteThreshold, bulkWriteThreshold},
		{"striped", 3, 12*record.DefaultChunkSize + 7, 4 * record.DefaultChunkSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clients, servers := stripedPairs(t, creds, tc.k)
			defer func() {
				for i := range clients {
					clients[i].Close()
					servers[i].Close()
				}
			}()
			want := make([]byte, tc.n)
			rand.New(rand.NewSource(5)).Read(want)
			got := make(chan []byte, 1)
			go func() {
				st := NewTransfer(nil, servers, Recv)
				data, err := st.ReadAll(0)
				if err != nil {
					t.Error(err)
				}
				st.Finish(nil)
				got <- data
			}()
			st := NewTransfer(nil, clients, Send)
			src := make([]byte, tc.write)
			for off := 0; off < tc.n; off += tc.write {
				m := copy(src, want[off:])
				if _, err := st.Write(src[:m]); err != nil {
					t.Fatal(err)
				}
				for i := range src {
					src[i] = 0xEE
				}
			}
			if err := st.Finish(nil); err != nil {
				t.Fatal(err)
			}
			if data := <-got; !bytes.Equal(data, want) {
				t.Fatalf("peer read %d bytes unlike the %d written", len(data), len(want))
			}
		})
	}
}

// ReadAll's slice grows only by payload bytes that arrived and
// authenticated: a hint that fits is never outgrown, and a record cut
// mid-frame adds nothing.
func TestReadAllGrowsOnlyByArrivedBytes(t *testing.T) {
	creds := newCreds(t)
	n := 2*record.DefaultChunkSize + 100
	for _, hint := range []int{n, n + 1000} {
		client, server := pipePair(t, creds)
		go func() {
			st := NewStream(nil, client)
			st.Write(make([]byte, n))
			st.CloseWrite()
		}()
		got, err := NewStream(nil, server).ReadAll(hint)
		if err != nil || len(got) != n || cap(got) != hint {
			t.Fatalf("hint %d: len %d cap %d, %v", hint, len(got), cap(got), err)
		}
		client.Close()
		server.Close()
	}

	client, server := pipePair(t, creds)
	defer server.Close()
	sent := bytes.Repeat([]byte{7}, 1000)
	go func() {
		st := NewStream(nil, client)
		st.Write(sent)
		st.Write(sent)
		var frame bytes.Buffer
		record.WriteChunk(&frame, client.Context(), record.ChunkData, 2, make([]byte, 5000))
		client.raw.Write(frame.Bytes()[:frame.Len()/2])
		client.Close()
	}()
	got, err := NewStream(nil, server).ReadAll(0)
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 2*len(sent) || !bytes.Equal(got[:len(sent)], sent) {
		t.Fatalf("cut record: %d bytes kept, %v", len(got), err)
	}
}

// bulkWriteAllocsPerChunk bounds the pipelined Write's allocations per
// 256 KiB chunk, pipeline start-up and vectored flushes included:
// measured 2.75 (the seal task and its done channel, and 12 a 4 MiB
// Write), where a nonce escaping from each seal read 3.75.
const bulkWriteAllocsPerChunk = 3

// TestBulkWriteAllocs: a pipelined 4 MiB Stream.Write allocates at most
// bulkWriteAllocsPerChunk a chunk.
func TestBulkWriteAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts differ under -race")
	}
	creds := newCreds(t)
	client, server := pipePair(t, creds)
	defer client.Close()
	defer server.Close()
	go io.Copy(io.Discard, server.raw)
	st := NewStream(context.Background(), client)
	p := make([]byte, 4<<20)
	write := func() {
		if _, err := st.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	write()
	chunks := float64(len(p) / record.DefaultChunkSize)
	if per := testing.AllocsPerRun(10, write) / chunks; per > bulkWriteAllocsPerChunk {
		t.Fatalf("pipelined 4 MiB Write: %.2f allocations a chunk, want <= %d", per, bulkWriteAllocsPerChunk)
	}
}
