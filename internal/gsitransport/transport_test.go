package gsitransport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gss"
)

type bedCreds struct {
	ts    *gridcert.TrustStore
	alice *gridcert.Credential
	host  *gridcert.Credential
}

func newCreds(t testing.TB) bedCreds {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	alice, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	host, err := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host example.org"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return bedCreds{ts: ts, alice: alice, host: host}
}

// pipePair establishes a secured connection over net.Pipe.
func pipePair(t testing.TB, creds bedCreds) (*Conn, *Conn) {
	t.Helper()
	cRaw, sRaw := net.Pipe()
	type result struct {
		conn *Conn
		err  error
	}
	serverDone := make(chan result, 1)
	go func() {
		conn, err := Server(sRaw, gss.Config{Credential: creds.host, TrustStore: creds.ts})
		serverDone <- result{conn, err}
	}()
	client, err := Client(cRaw, gss.Config{Credential: creds.alice, TrustStore: creds.ts})
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	sr := <-serverDone
	if sr.err != nil {
		t.Fatalf("server handshake: %v", sr.err)
	}
	return client, sr.conn
}

func TestHandshakeAndExchangeOverPipe(t *testing.T) {
	creds := newCreds(t)
	client, server := pipePair(t, creds)
	defer client.Close()

	if got := client.Peer().Identity.String(); got != "/O=Grid/CN=host example.org" {
		t.Fatalf("client peer = %q", got)
	}
	if got := server.Peer().Identity.String(); got != "/O=Grid/CN=Alice" {
		t.Fatalf("server peer = %q", got)
	}

	done := make(chan error, 1)
	go func() {
		msg, err := server.Receive()
		if err != nil {
			done <- err
			return
		}
		done <- server.Send(append([]byte("echo:"), msg...))
	}()
	if err := client.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:hello" {
		t.Fatalf("reply = %q", reply)
	}
}

// countingConn counts the writes leaving one end of a connection.
type countingConn struct {
	net.Conn
	writes, bytes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return c.Conn.Write(p)
}

// TestHandshakeStats: establishment costs three tokens on the wire, each
// in one write — two from the initiator, one from the acceptor.
func TestHandshakeStats(t *testing.T) {
	creds := newCreds(t)
	cRaw, sRaw := net.Pipe()
	cw, sw := &countingConn{Conn: cRaw}, &countingConn{Conn: sRaw}
	accepted := make(chan error, 1)
	go func() {
		conn, err := Server(sw, gss.Config{Credential: creds.host, TrustStore: creds.ts})
		if err == nil {
			defer conn.Close()
		}
		accepted <- err
	}()
	client, err := Client(cw, gss.Config{Credential: creds.alice, TrustStore: creds.ts})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	if cw.writes != 2 || sw.writes != 1 || cw.bytes == 0 || sw.bytes == 0 {
		t.Fatalf("handshake writes: initiator %d (%d B), acceptor %d (%d B); want 2 and 1", cw.writes, cw.bytes, sw.writes, sw.bytes)
	}
}

func TestOverTCPListener(t *testing.T) {
	creds := newCreds(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(inner, gss.Config{Credential: creds.host, TrustStore: creds.ts})
	defer l.Close()

	serverErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		defer conn.Close()
		msg, err := conn.Receive()
		if err != nil {
			serverErr <- err
			return
		}
		if !bytes.Equal(msg, []byte("job request")) {
			serverErr <- err
			return
		}
		serverErr <- conn.Send([]byte("ok"))
	}()

	client, err := Dial(l.Addr().String(), gss.Config{
		Credential:   creds.alice,
		TrustStore:   creds.ts,
		ExpectedPeer: gridcert.MustParseName("/O=Grid/CN=host example.org"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send([]byte("job request")); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "ok" {
		t.Fatalf("reply = %q", reply)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

func TestClientRejectsWrongHost(t *testing.T) {
	creds := newCreds(t)
	cRaw, sRaw := net.Pipe()
	go func() {
		// Server authenticates as the host, but client expects another name.
		Server(sRaw, gss.Config{Credential: creds.host, TrustStore: creds.ts})
		sRaw.Close()
	}()
	_, err := Client(cRaw, gss.Config{
		Credential:   creds.alice,
		TrustStore:   creds.ts,
		ExpectedPeer: gridcert.MustParseName("/O=Grid/CN=some other host"),
	})
	if err == nil {
		t.Fatal("client accepted wrong host identity")
	}
	cRaw.Close()
}

func TestUntrustedClientRejectedByServer(t *testing.T) {
	creds := newCreds(t)
	rogueAuth, err := ca.New(gridcert.MustParseName("/O=Rogue/CN=CA"), time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := rogueAuth.NewEntity(gridcert.MustParseName("/O=Rogue/CN=Eve"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cRaw, sRaw := net.Pipe()
	serverErr := make(chan error, 1)
	go func() {
		_, err := Server(sRaw, gss.Config{Credential: creds.host, TrustStore: creds.ts})
		serverErr <- err
		sRaw.Close()
	}()
	rogueTS := gridcert.NewTrustStore()
	rogueTS.AddRoot(rogueAuth.Certificate())
	rogueTS.AddRoot(func() *gridcert.Certificate {
		// Rogue trusts the real CA so the handshake reaches token3.
		for _, r := range creds.ts.Roots() {
			return r
		}
		return nil
	}())
	_, _ = Client(cRaw, gss.Config{Credential: rogue, TrustStore: rogueTS})
	if err := <-serverErr; err == nil {
		t.Fatal("server accepted client from untrusted CA")
	}
	cRaw.Close()
}

func BenchmarkGT2HandshakeOverPipe(b *testing.B) {
	creds := newCreds(b)
	for i := 0; i < b.N; i++ {
		cRaw, sRaw := net.Pipe()
		done := make(chan error, 1)
		go func() {
			conn, err := Server(sRaw, gss.Config{Credential: creds.host, TrustStore: creds.ts})
			if err == nil {
				_ = conn
			}
			done <- err
		}()
		client, err := Client(cRaw, gss.Config{Credential: creds.alice, TrustStore: creds.ts})
		if err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		client.Close()
	}
}

func BenchmarkGT2Send4K(b *testing.B) {
	creds := newCreds(b)
	client, server := pipePair(b, creds)
	defer client.Close()
	msg := bytes.Repeat([]byte{7}, 4096)
	go func() {
		for {
			if _, err := server.Receive(); err != nil {
				return
			}
		}
	}()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}
