package soap

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
)

// TestHTTPReplyDeclaresLength: a reply too large for net/http to size by
// itself still carries Content-Length (it used to go out chunked), so
// the client reads it into one buffer of the right size.
func TestHTTPReplyDeclaresLength(t *testing.T) {
	big := bytes.Repeat([]byte("grid"), 1<<18) // 1 MiB, ~1.4 MB in the envelope
	d := NewDispatcher()
	d.Handle("big", func(e *Envelope) (*Envelope, error) { return e.Reply(big), nil })
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req, err := NewEnvelope("big", nil).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL(), "text/xml", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("reply of %d bytes declared Content-Length %d, Transfer-Encoding %v", len(body), resp.ContentLength, resp.TransferEncoding)
	}
	rep, err := (&Client{Endpoint: srv.URL()}).Call(NewEnvelope("big", nil))
	if err != nil || !bytes.Equal(rep.Body, big) {
		t.Fatalf("client read %d body bytes, err %v", len(rep.Body), err)
	}
}

// TestHTTPShortBodyIsTransportError: a peer that dies before sending the
// length it declared is a transport failure, not an envelope for the
// XML layer to misread.
func TestHTTPShortBodyIsTransportError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 4096\r\n\r\n<?xml version=\"1.0\"?><Envelope>")
	}()
	_, err = (&Client{Endpoint: "http://" + ln.Addr().String() + "/soap"}).Call(NewEnvelope("echo", nil))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}
