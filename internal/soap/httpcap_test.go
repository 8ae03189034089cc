package soap

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

const overCap = "soap: body exceeds the 16 MiB cap"

// zeros is an endless body; wrapped in a LimitReader it has no length
// net/http can see, so it goes out chunked.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestServerRefusesOverCapBody: a request a byte over the cap is answered
// with the reason, whether its length was declared (refused before a byte
// of it is read) or not — never cut to 16 MiB and handed to the parser.
func TestServerRefusesOverCapBody(t *testing.T) {
	var parsed atomic.Bool
	d := NewDispatcher()
	d.Handle("op", func(e *Envelope) (*Envelope, error) { parsed.Store(true); return e.Reply(nil), nil })
	srv, err := NewServer("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("declared", func(t *testing.T) {
		conn, err := net.Dial("tcp", strings.TrimSuffix(strings.TrimPrefix(srv.URL(), "http://"), "/soap"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /soap HTTP/1.1\r\nHost: x\r\nContent-Type: text/xml\r\nContent-Length: %d\r\n\r\n", maxHTTPBody+1)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(msg)) != overCap {
			t.Fatalf("status %d, body %q", resp.StatusCode, msg)
		}
	})
	t.Run("chunked", func(t *testing.T) {
		resp, err := http.Post(srv.URL(), "text/xml", io.LimitReader(zeros{}, maxHTTPBody+1))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(msg)) != overCap {
			t.Fatalf("status %d, body %q", resp.StatusCode, msg)
		}
	})
	if parsed.Load() {
		t.Fatal("an over-cap request reached a handler")
	}
}

// TestClientRefusesOverCapReply: the same on the way back — a VO a little
// over twice the benchmark's would meet this on its first sync, and the
// operator must read the cap, not "malformed envelope".
func TestClientRefusesOverCapReply(t *testing.T) {
	for route, handler := range map[string]http.HandlerFunc{
		"declared": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", fmt.Sprint(maxHTTPBody+1))
			w.WriteHeader(http.StatusOK) // the client refuses on the header alone
		},
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			w.(http.Flusher).Flush() // commits the header with no length
			io.Copy(w, io.LimitReader(zeros{}, maxHTTPBody+1))
		},
	} {
		srv := httptest.NewServer(handler)
		_, err := (&Client{Endpoint: srv.URL}).Call(NewEnvelope("op", nil))
		srv.Close()
		if err == nil || err.Error() != overCap {
			t.Errorf("%s: err = %v, want %q", route, err, overCap)
		}
	}
}
