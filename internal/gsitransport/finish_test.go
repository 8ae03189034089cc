package gsitransport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// finishPayload spans enough chunks that every lane of a striped
// transfer carries several, with an unaligned tail.
func finishPayload() []byte {
	p := make([]byte, 9*record.DefaultChunkSize+4321)
	rand.New(rand.NewSource(41)).Read(p)
	return p
}

// pingAll proves every connection pair is synchronized at a record
// boundary: one plain exchange must cross each.
func pingAll(t *testing.T, clients, servers []*Conn) {
	t.Helper()
	for i := range clients {
		echoed := make(chan error, 1)
		go func(s *Conn) {
			msg, err := s.Receive()
			if err == nil {
				err = s.Send(msg)
			}
			echoed <- err
		}(servers[i])
		if err := clients[i].Send([]byte("ping")); err != nil {
			t.Fatalf("lane %d: send after stream: %v", i, err)
		}
		reply, err := clients[i].Receive()
		if err != nil || string(reply) != "ping" {
			t.Fatalf("lane %d: exchange after stream: %q %v", i, reply, err)
		}
		if err := <-echoed; err != nil {
			t.Fatalf("lane %d: peer side of exchange: %v", i, err)
		}
		if !clients[i].Healthy() || !servers[i].Healthy() {
			t.Fatalf("lane %d unhealthy after a synchronized end", i)
		}
	}
}

func isPeerError(err error, msg string) bool {
	var pe *record.PeerError
	return errors.As(err, &pe) && pe.Msg == msg
}

// Finish owns the whole end-of-transfer sequence. Every way a transfer
// can end is pinned here, at one connection (the record path) and at K
// (the striped lanes): what each side's Finish reports, what reads
// report, and what state the connections are left in.
func TestFinish(t *testing.T) {
	for _, k := range []int{1, 3} {
		name := "1conn"
		if k > 1 {
			name = "3lanes"
		}
		t.Run(name, func(t *testing.T) {
			t.Run("clean end", func(t *testing.T) { finishClean(t, k) })
			t.Run("handler error reaches the peer", func(t *testing.T) { finishHandlerError(t, k) })
			t.Run("peer abort leaves connections reusable", func(t *testing.T) { finishPeerAbort(t, k) })
			t.Run("lane killed mid-flight/Read", func(t *testing.T) {
				finishLaneKilled(t, k, func(st *Stream) ([]byte, error) { return io.ReadAll(st) })
			})
			t.Run("lane killed mid-flight/ReadAll", func(t *testing.T) {
				finishLaneKilled(t, k, func(st *Stream) ([]byte, error) { return st.ReadAll(0) })
			})
		})
	}
}

type sideResult struct {
	data []byte
	err  error // what reads reported
	fin  error // what Finish reported
}

// Both halves FIN: both Finishes report nil, the bytes are intact both
// ways, and every connection carries ordinary exchanges afterwards.
func finishClean(t *testing.T, k int) {
	clients, servers := stripedPairs(t, newCreds(t), k)
	payload := finishPayload()
	done := make(chan sideResult, 1)
	go func() {
		st := NewTransfer(nil, servers, Duplex)
		var r sideResult
		r.data, r.err = st.ReadAll(len(payload))
		if r.err == nil {
			_, r.err = st.Write([]byte("stored"))
		}
		r.fin = st.Finish(nil)
		done <- r
	}()
	st := NewTransfer(nil, clients, Duplex)
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(st)
	if err != nil || string(reply) != "stored" {
		t.Fatalf("reply: %q %v", reply, err)
	}
	if err := st.Finish(nil); err != nil {
		t.Fatalf("client Finish: %v", err)
	}
	srv := <-done
	if srv.err != nil || srv.fin != nil || !bytes.Equal(srv.data, payload) {
		t.Fatalf("server: read %d bytes, err=%v, Finish=%v", len(srv.data), srv.err, srv.fin)
	}
	pingAll(t, clients, servers)
}

// A handler that fails hands its error to Finish: the peer's reads fail
// with that text, and both sides' connections stay synchronized.
func finishHandlerError(t *testing.T, k int) {
	clients, servers := stripedPairs(t, newCreds(t), k)
	payload := finishPayload()
	done := make(chan sideResult, 1)
	go func() {
		st := NewTransfer(nil, servers, Duplex)
		var r sideResult
		r.data, r.err = st.ReadAll(len(payload))
		r.fin = st.Finish(errors.New("quota exceeded"))
		done <- r
	}()
	st := NewTransfer(nil, clients, Duplex)
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(st); !isPeerError(err, "quota exceeded") {
		t.Fatalf("client read: %v, want the handler's error text", err)
	}
	if err := st.Finish(nil); !isPeerError(err, "quota exceeded") {
		t.Fatalf("client Finish: %v, want the peer abort", err)
	}
	if srv := <-done; srv.err != nil || srv.fin != nil {
		t.Fatalf("server: read err=%v, Finish=%v (aborting is not a failure of the aborter)", srv.err, srv.fin)
	}
	pingAll(t, clients, servers)
}

// A sender that aborts mid-transfer, with DATA still in flight on every
// lane: the receiver's reads fail with the reason, never a clean EOF,
// its Finish reports the abort — and every connection, on both sides,
// is at a record boundary again.
func finishPeerAbort(t *testing.T, k int) {
	clients, servers := stripedPairs(t, newCreds(t), k)
	payload := finishPayload()
	done := make(chan sideResult, 1)
	go func() {
		st := NewTransfer(nil, servers, Duplex)
		var r sideResult
		r.data, r.err = io.ReadAll(st)
		r.fin = st.Finish(nil)
		done <- r
	}()
	st := NewTransfer(nil, clients, Duplex)
	if _, err := st.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := st.Finish(errors.New("client changed its mind")); err != nil {
		t.Fatalf("aborter's Finish: %v", err)
	}
	srv := <-done
	if !isPeerError(srv.err, "client changed its mind") {
		t.Fatalf("receiver read: %v (%d bytes), want the abort reason", srv.err, len(srv.data))
	}
	if !isPeerError(srv.fin, "client changed its mind") {
		t.Fatalf("receiver Finish: %v, want the peer abort", srv.fin)
	}
	pingAll(t, clients, servers)
}

// A connection that dies mid-transfer is an error on both sides: the
// receiver never sees a clean end or a short read that looks complete,
// both Finishes fail, and the receiver's connections are left broken.
// The connection is closed between records, so the receiver's socket
// reads a plain EOF — which must not pass for the stream's.
func finishLaneKilled(t *testing.T, k int, read func(*Stream) ([]byte, error)) {
	clients, servers := stripedPairs(t, newCreds(t), k)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	payload := finishPayload()
	done := make(chan sideResult, 1)
	go func() {
		st := NewTransfer(nil, servers, Recv)
		var r sideResult
		r.data, r.err = read(st)
		r.fin = st.Finish(nil)
		// Nothing reads the surviving lanes any more; close them so the
		// sender's lanes fail instead of blocking on the synchronous pipe.
		for _, s := range servers {
			s.Close()
		}
		done <- r
	}()
	st := NewTransfer(nil, clients, Send)
	half := len(payload) / 2
	if _, err := st.Write(payload[:half]); err != nil {
		t.Fatalf("first half: %v", err)
	}
	clients[k-1].Close()
	st.Write(payload[half:])
	if err := st.Finish(nil); err == nil {
		t.Fatal("sender's Finish reported a clean end over a dead connection")
	}
	srv := <-done
	var pe *record.PeerError
	if srv.err == nil || errors.As(srv.err, &pe) {
		t.Fatalf("receiver read: err=%v with %d of %d bytes: a truncated transfer looked complete", srv.err, len(srv.data), len(payload))
	}
	if srv.fin == nil || errors.As(srv.fin, &pe) {
		t.Fatalf("receiver Finish: %v, want a transport failure", srv.fin)
	}
	for i, s := range servers {
		if !s.Broken() {
			t.Fatalf("receiver lane %d still marked reusable after a failed transfer", i)
		}
	}
}
