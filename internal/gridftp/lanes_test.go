package gridftp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gss"
	"repro/internal/proxy"
)

// countSessions counts secured sessions established in this process.
// Client and server run here, and each end of a handshake reports it, so
// a session is two reports.
func countSessions(t *testing.T) func() int {
	var n atomic.Int64
	gss.SetHandshakeObserver(func(time.Duration) { n.Add(1) })
	t.Cleanup(func() { gss.SetHandshakeObserver(nil) })
	return func() int { return int(n.Load()) / 2 }
}

func dialAlice(t *testing.T, b *bed, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func (c *Client) parkedLanes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.parked)
}

// stripedRoundTrip PUTs payload over k stripes and GETs it back.
func stripedRoundTrip(t *testing.T, c *Client, path string, k int, payload []byte) {
	t.Helper()
	if err := c.PutStriped(path, k, payload); err != nil {
		t.Fatalf("striped PUT: %v", err)
	}
	got, err := getStriped(c, path, k)
	if err != nil {
		t.Fatalf("striped GET: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("striped round trip returned %d bytes that differ from the %d sent", len(got), len(payload))
	}
}

// Data connections are authenticated once per session, not once per
// transfer: any number of striped transfers over K lanes cost the control
// session and K more, and a wider transfer dials only the lanes missing.
// The transfers follow each other with nothing in between, so each JOIN
// reaches a lane whose server goroutine may not yet be back from the
// last transfer's rendezvous.
func TestStripedLanesAuthenticateOnce(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	sessions := countSessions(t)
	c := dialAlice(t, b, b.srv.Addr())

	big, small := stripedPayload(1<<20+77), stripedPayload(300<<10)
	stripedRoundTrip(t, c, "/data/big", 2, big)
	for i := 0; i < 8; i++ {
		stripedRoundTrip(t, c, "/data/small", 2, small)
	}
	stripedRoundTrip(t, c, "/data/big", 2, big)
	if got := sessions(); got != 1+2 {
		t.Fatalf("%d sessions for 20 transfers over 2 stripes, want the control session and 2 lanes", got)
	}
	stripedRoundTrip(t, c, "/data/wide", 4, big)
	if got := sessions(); got != 1+4 {
		t.Fatalf("%d sessions after widening to 4 stripes, want 2 more than the 3 there were", got)
	}
	// A narrower transfer leaves the lanes it does not need where they are.
	stripedRoundTrip(t, c, "/data/small", 2, small)
	if got, parked := sessions(), c.parkedLanes(); got != 1+4 || parked != 4 {
		t.Fatalf("%d sessions, %d lanes parked after narrowing to 2 stripes; want 5 and 4", got, parked)
	}
	// The control session is as usable as ever.
	if names, err := c.List("/data/"); err != nil || len(names) != 3 {
		t.Fatalf("List after striped transfers: %v %v", names, err)
	}
}

// laneProxy relays TCP between a client and the server, so a test can do
// to a connection what a network does: kill the first one that carries
// more than killAfter bytes, or any one by the order it was accepted in
// (0 is the control connection, the data lanes follow).
type laneProxy struct {
	ln        net.Listener
	backend   string
	killAfter atomic.Int64 // 0: never
	killed    atomic.Bool

	mu    sync.Mutex
	pairs [][2]net.Conn
	wg    sync.WaitGroup
}

func newLaneProxy(t *testing.T, backend string) *laneProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &laneProxy{ln: ln, backend: backend}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		n := len(p.pairs)
		p.mu.Unlock()
		for i := 0; i < n; i++ {
			p.kill(i)
		}
		p.wg.Wait()
	})
	return p
}

func (p *laneProxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		i := len(p.pairs)
		p.pairs = append(p.pairs, [2]net.Conn{client, server})
		p.mu.Unlock()
		var carried atomic.Int64
		relay := func(dst, src net.Conn) {
			defer p.wg.Done()
			buf := make([]byte, 32<<10)
			for {
				n, err := src.Read(buf)
				if n > 0 {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						break
					}
					if limit := p.killAfter.Load(); limit > 0 && carried.Add(int64(n)) > limit && p.killed.CompareAndSwap(false, true) {
						break
					}
				}
				if err != nil {
					break
				}
			}
			p.kill(i)
		}
		p.wg.Add(2)
		go relay(server, client)
		go relay(client, server)
	}
}

func (p *laneProxy) kill(i int) {
	p.mu.Lock()
	pair := p.pairs[i]
	p.mu.Unlock()
	pair[0].Close()
	pair[1].Close()
}

// A lane that dies mid-transfer fails that transfer, whichever way the
// file was going, and nothing of it is kept: no lane is parked — not the
// dead one and not its healthy siblings, which were never brought to a
// clean end — and the session's next striped transfer dials afresh.
func TestStripedLaneKilledMidTransferParksNothing(t *testing.T) {
	for _, dir := range []string{"PUT", "GET"} {
		t.Run(dir, func(t *testing.T) {
			b := newBed(t, openAll("/O=Grid/CN=Alice"))
			px := newLaneProxy(t, b.srv.Addr())
			sessions := countSessions(t)
			c := dialAlice(t, b, px.ln.Addr().String())
			payload := stripedPayload(3 << 20)
			stripedRoundTrip(t, c, "/data/f", 3, payload)
			if c.parkedLanes() != 3 || sessions() != 1+3 {
				t.Fatalf("before the fault: %d lanes parked, %d sessions", c.parkedLanes(), sessions())
			}

			// Only a data lane carries half a megabyte; each of the three has
			// twice that to carry.
			px.killAfter.Store(512 << 10)
			var err error
			if dir == "PUT" {
				err = c.PutStriped("/data/doomed", 3, payload)
			} else {
				_, err = getStriped(c, "/data/f", 3)
			}
			if err == nil || !px.killed.Load() {
				t.Fatalf("transfer over a killed lane: err=%v, killed=%v", err, px.killed.Load())
			}
			if n := c.parkedLanes(); n != 0 {
				t.Fatalf("%d lanes parked after a failed transfer", n)
			}
			if _, err := b.store.Open(b.alice.Identity(), "/data/doomed"); err == nil {
				t.Fatal("server stored a truncated file")
			}

			before := sessions()
			stripedRoundTrip(t, c, "/data/f", 3, payload)
			if got := sessions() - before; got != 3 {
				t.Fatalf("%d lanes dialed after the failed transfer, want all 3", got)
			}
		})
	}
}

// Only a transfer that ended cleanly leaves lanes behind. An aborted PUT,
// and a GET whose reader had reported a failure, close theirs — the ones
// they took from the session included. A GET closed early is a clean
// end: Close consumed the rest, so its lanes are parked at a record
// boundary and the next transfer over them is byte-exact.
func TestStripedLanesNotParkedAfterAbort(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c := dialAlice(t, b, b.srv.Addr())
	payload := stripedPayload(1<<20 + 5)
	stripedRoundTrip(t, c, "/data/f", 3, payload)

	w, err := c.PutStripedWriter("/data/partial", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload[:512<<10]); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort("changed my mind"); err != nil {
		t.Fatal(err)
	}
	if n := c.parkedLanes(); n != 0 {
		t.Fatalf("%d lanes parked after an aborted PUT", n)
	}

	stripedRoundTrip(t, c, "/data/f", 3, payload)
	g, err := c.GetStripedReader("/data/f", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&fullWriter{limit: 512 << 10}, g); !errors.Is(err, errDiskFull) {
		t.Fatalf("GET into a full disk: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close reported again what the reader already had: %v", err)
	}
	if n := c.parkedLanes(); n != 0 {
		t.Fatalf("%d lanes parked after a GET that failed", n)
	}

	stripedRoundTrip(t, c, "/data/f", 3, payload)
	if g, err = c.GetStripedReader("/data/f", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(g, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if n := c.parkedLanes(); n != 3 {
		t.Fatalf("%d lanes parked after a GET closed early and cleanly, want 3", n)
	}
	stripedRoundTrip(t, c, "/data/f", 3, payload)
}

var errDiskFull = errors.New("disk full")

// fullWriter fails once it has taken limit bytes.
type fullWriter struct{ limit int }

func (w *fullWriter) Write(p []byte) (int, error) {
	if w.limit -= len(p); w.limit < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// A lane the server (or the network) closed while it was parked looks
// healthy until it is used. The JOIN that finds out is repeated on a new
// connection and the transfer goes through.
func TestStripedLaneClosedWhileParkedIsReplaced(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	px := newLaneProxy(t, b.srv.Addr())
	sessions := countSessions(t)
	c := dialAlice(t, b, px.ln.Addr().String())
	payload := stripedPayload(1<<20 + 9)
	stripedRoundTrip(t, c, "/data/f", 3, payload)

	px.kill(2) // the second of the three lanes; 0 is the control connection
	stripedRoundTrip(t, c, "/data/f", 3, payload)
	if got, parked := sessions(), c.parkedLanes(); got != 1+3+1 || parked != 3 {
		t.Fatalf("%d sessions, %d lanes parked; want the dead lane replaced by one dial (5) and 3 parked", got, parked)
	}
}

// A parked lane lives exactly as long as its security context, which
// lapses with the credential that authenticated it: there is no other
// clock. Lanes dialed under a two-second proxy are found lapsed when the
// next transfer comes for them, and replaced.
func TestStripedExpiredLaneIsReplaced(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a two-second proxy")
	}
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	sessions := countSessions(t)
	c := dialAlice(t, b, b.srv.Addr())
	brief, err := proxy.New(b.alice, proxy.Options{Lifetime: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	payload := stripedPayload(1 << 20)
	c.cred = brief // the control session stays Alice's own
	stripedRoundTrip(t, c, "/data/f", 2, payload)
	c.cred = b.alice
	if c.parkedLanes() != 2 {
		t.Fatalf("%d lanes parked under the proxy, want 2", c.parkedLanes())
	}

	time.Sleep(time.Until(brief.Leaf().NotAfter) + 50*time.Millisecond)
	stripedRoundTrip(t, c, "/data/f", 2, payload)
	if got := sessions(); got != 1+2+2 {
		t.Fatalf("%d sessions, want both lapsed lanes replaced (5)", got)
	}
}

// Close ends the data connections with the session: the server's
// goroutines, one per connection, all leave.
func TestStripedLanesClosedWithSession(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	// At rest the server is two goroutines, its accept loop and the
	// listener's accept in flight, which start one after the other.
	idle, still := runtime.NumGoroutine(), 0
	for still < 20 {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == idle {
			still++
		} else {
			idle, still = n, 0
		}
	}
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	stripedRoundTrip(t, c, "/data/f", 4, stripedPayload(1<<20))
	if c.parkedLanes() != 4 || runtime.NumGoroutine() < idle+5 {
		t.Fatalf("%d lanes parked, %d goroutines over idle; want 4 and one server goroutine per connection", c.parkedLanes(), runtime.NumGoroutine()-idle)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Close, %d when idle", runtime.NumGoroutine(), idle)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Nothing is parked on a closed session, whatever is still in flight.
	if c.park(nil) {
		t.Fatal("a closed session parked a lane")
	}
	if _, err := c.List("/"); err == nil || strings.Contains(err.Error(), "denied") {
		t.Fatalf("closed session answered: %v", err)
	}
}
