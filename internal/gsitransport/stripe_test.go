package gsitransport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// stripedPairs establishes k secured connections, client and server
// side aligned by index.
func stripedPairs(t *testing.T, creds bedCreds, k int) (clients, servers []*Conn) {
	t.Helper()
	for i := 0; i < k; i++ {
		c, s := pipePair(t, creds)
		clients = append(clients, c)
		servers = append(servers, s)
	}
	return clients, servers
}

// The bulk pipelined Write and pipelined ReadAll must reproduce the
// serial path's byte stream exactly and leave the connection
// synchronized for further traffic.
func TestStreamBulkPipelinedRoundTrip(t *testing.T) {
	creds := newCreds(t)
	client, server := pipePair(t, creds)
	defer client.Close()
	defer server.Close()

	payload := make([]byte, bulkWriteThreshold+12345)
	rand.New(rand.NewSource(11)).Read(payload)

	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		st := NewStream(nil, server)
		data, err := st.ReadAll(len(payload))
		got <- result{data, err}
	}()

	st := NewStream(nil, client)
	n, err := st.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("bulk write: n=%d err=%v", n, err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("ReadAll: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatalf("bulk round trip corrupted: %d vs %d bytes", len(r.data), len(payload))
	}

	// The connection must still be usable for plain exchanges: the
	// pipelined reader may not have stolen the next record.
	done := make(chan error, 1)
	go func() {
		msg, err := server.Receive()
		if err != nil {
			done <- err
			return
		}
		done <- server.Send(msg)
	}()
	if err := client.Send([]byte("after-stream")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(reply) != "after-stream" {
		t.Fatalf("post-stream exchange corrupted: %q", reply)
	}
}

// A peer abort surfaces through ReadAll as a *record.PeerError without
// breaking the connection (graceful terminal record).
func TestStreamReadAllPeerAbort(t *testing.T) {
	creds := newCreds(t)
	client, server := pipePair(t, creds)
	defer client.Close()
	defer server.Close()

	got := make(chan error, 1)
	go func() {
		st := NewStream(nil, server)
		_, err := st.ReadAll(0)
		got <- err
	}()

	st := NewStream(nil, client)
	if _, err := st.Write(bytes.Repeat([]byte{7}, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWithError("quota exceeded"); err != nil {
		t.Fatal(err)
	}
	err := <-got
	var pe *record.PeerError
	if !errors.As(err, &pe) || pe.Msg != "quota exceeded" {
		t.Fatalf("ReadAll after abort: %v", err)
	}
	if server.Broken() {
		t.Fatal("graceful abort broke the connection")
	}
}

func TestStripedRoundTrip(t *testing.T) {
	creds := newCreds(t)
	clients, servers := stripedPairs(t, creds, 3)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	payload := make([]byte, 2*1024*1024+777)
	rand.New(rand.NewSource(23)).Read(payload)

	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	var reader *Stream
	go func() {
		reader = NewTransfer(nil, servers, Recv)
		data, err := reader.ReadAll(len(payload))
		got <- result{data, err}
	}()

	w := NewTransfer(nil, clients, Send)
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("striped write: %v", err)
	}
	if err := w.Finish(nil); err != nil {
		t.Fatalf("striped finish: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("striped read: %v", r.err)
	}
	if !bytes.Equal(r.data, payload) {
		t.Fatalf("striped round trip corrupted: %d vs %d bytes", len(r.data), len(payload))
	}
	if err := reader.Finish(nil); err != nil {
		t.Fatalf("reader finish: %v", err)
	}
}

// A stripe that dies mid-transfer must fail the read — the surviving
// FIN trailers pin the chunk population, so truncation is impossible.
func TestStripedDeadStripeDetected(t *testing.T) {
	creds := newCreds(t)
	clients, servers := stripedPairs(t, creds, 3)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}()

	payload := make([]byte, 2*1024*1024)
	rand.New(rand.NewSource(31)).Read(payload)

	got := make(chan error, 1)
	var reader *Stream
	go func() {
		reader = NewTransfer(nil, servers, Recv)
		_, err := reader.ReadAll(len(payload))
		got <- err
	}()

	w := NewTransfer(nil, clients, Send)
	half := payload[:len(payload)/2]
	if _, err := w.Write(half); err != nil {
		t.Fatalf("first half: %v", err)
	}
	clients[1].Close() // stripe 1 dies mid-flight
	if err := <-got; err == nil {
		t.Fatal("reader completed despite a dead stripe: silent truncation")
	} else if err == io.EOF {
		t.Fatal("reader reported clean EOF on a truncated stream")
	}
	if reader.Finish(nil) == nil {
		t.Fatal("Finish reported a clean end after a dead stripe")
	}
	// With the reader gone nothing drains the surviving pipes; close the
	// server ends so the writer's lanes fail instead of blocking.
	for _, s := range servers {
		s.Close()
	}
	w.Write(payload[len(payload)/2:])
	if w.Finish(nil) == nil {
		t.Fatal("writer did not notice the dead stripe")
	}
}
