package gridftp

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/proxy"
)

type bed struct {
	trust *gridcert.TrustStore
	alice *gridcert.Credential
	bob   *gridcert.Credential
	srv   *Server
	store *Store
}

func openAll(subjects ...string) *authz.Policy {
	p := authz.NewPolicy(authz.DenyOverrides)
	for _, s := range subjects {
		p.Add(authz.Rule{
			Effect:   authz.EffectPermit,
			Subjects: []string{s},
			Actions:  []string{"read", "write", "delete", "list"},
		})
	}
	return p
}

func newBed(t testing.TB, policy *authz.Policy) *bed {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	alice, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	bob, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	host, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host ftp1"), 12*time.Hour)
	store := NewStore(policy)
	srv, err := NewServer("127.0.0.1:0", store, host, trust)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &bed{trust: trust, alice: alice, bob: bob, srv: srv, store: store}
}

func TestPutGetListDelete(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := bytes.Repeat([]byte("climate "), 1000)
	if err := put(c, "/data/run1", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/data/run1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	if err := put(c, "/data/run2", []byte("x")); err != nil {
		t.Fatal(err)
	}
	names, err := c.List("/data/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "/data/run1" {
		t.Fatalf("List = %v", names)
	}
	if err := del(c, "/data/run1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/data/run1"); err == nil {
		t.Fatal("deleted file readable")
	}
}

func TestAuthorizationPerIdentity(t *testing.T) {
	// Alice full access; Bob read-only on /shared.
	pol := authz.NewPolicy(authz.DenyOverrides).Add(
		authz.Rule{
			Effect:   authz.EffectPermit,
			Subjects: []string{"/O=Grid/CN=Alice"},
			Actions:  []string{"read", "write", "delete", "list"},
		},
		authz.Rule{
			Effect:    authz.EffectPermit,
			Subjects:  []string{"/O=Grid/CN=Bob"},
			Resources: []string{"/shared/*"},
			Actions:   []string{"read", "list"},
		},
	)
	b := newBed(t, pol)
	ca_, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer ca_.Close()
	if err := put(ca_, "/shared/doc", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := put(ca_, "/private/alice", []byte("secret")); err != nil {
		t.Fatal(err)
	}

	cb, err := Dial(b.srv.Addr(), b.bob, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if got, err := cb.Get("/shared/doc"); err != nil || string(got) != "hello" {
		t.Fatalf("bob read shared: %q %v", got, err)
	}
	if err := put(cb, "/shared/doc", []byte("overwrite")); err == nil {
		t.Fatal("bob wrote to read-only share")
	}
	if _, err := cb.Get("/private/alice"); err == nil {
		t.Fatal("bob read alice's private file")
	}
	if err := del(cb, "/shared/doc"); err == nil {
		t.Fatal("bob deleted from read-only share")
	}
}

func TestProxyCredentialWorks(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	p, err := proxy.New(b.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(b.srv.Addr(), p, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The store authorizes against the *identity* (Alice), not the proxy
	// subject.
	if err := put(c, "/data/via-proxy", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestUntrustedClientRejected(t *testing.T) {
	b := newBed(t, openAll("/O=Rogue/CN=Eve"))
	rogueAuth, _ := ca.New(gridcert.MustParseName("/O=Rogue/CN=CA"), time.Hour, ca.DefaultPolicy())
	eve, _ := rogueAuth.NewEntity(gridcert.MustParseName("/O=Rogue/CN=Eve"), time.Hour)
	rogueTrust := gridcert.NewTrustStore()
	rogueTrust.AddRoot(rogueAuth.Certificate())
	// Eve trusts the server's CA so her side proceeds; the server must
	// still refuse her chain. Because the initiator sends the final
	// handshake token, her Dial may return before the server's rejection
	// lands — but no operation can succeed.
	for _, r := range b.trust.Roots() {
		rogueTrust.AddRoot(r)
	}
	c, err := Dial(b.srv.Addr(), eve, rogueTrust, b.srv.Identity())
	if err != nil {
		return // rejected during the handshake: fine
	}
	defer c.Close()
	if _, err := c.Get("/anything"); err == nil {
		t.Fatal("untrusted client performed an operation")
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	// Two servers; Alice orchestrates src→dst without the data passing
	// through her.
	auth, _ := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	alice, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	srcHost, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host src"), 12*time.Hour)
	dstHost, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host dst"), 12*time.Hour)

	pol := openAll("/O=Grid/CN=Alice")
	srcStore, dstStore := NewStore(pol), NewStore(pol)
	src, err := NewServer("127.0.0.1:0", srcStore, srcHost, trust)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewServer("127.0.0.1:0", dstStore, dstHost, trust)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	// Seed the source (as Alice).
	payload := bytes.Repeat([]byte("dataset "), 500)
	if err := srcStore.PutOwned(alice.Identity(), "/exp/результат", payload); err != nil {
		t.Fatal(err)
	}

	if err := ThirdPartyTransfer(alice, trust,
		src.Addr(), src.Identity(),
		dst.Addr(), dst.Identity(),
		"/exp/результат", "/mirror/copy"); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get(alice.Identity(), "/mirror/copy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("third-party copy mismatch")
	}
}

func TestThirdPartyTransferDeniedWithoutRights(t *testing.T) {
	auth, _ := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	trust := gridcert.NewTrustStore()
	trust.AddRoot(auth.Certificate())
	alice, _ := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	srcHost, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host src2"), 12*time.Hour)
	dstHost, _ := auth.NewHostEntity(gridcert.MustParseName("/O=Grid/CN=host dst2"), 12*time.Hour)

	// Destination denies Alice writes.
	srcStore := NewStore(openAll("/O=Grid/CN=Alice"))
	dstStore := NewStore(authz.NewPolicy(authz.DenyOverrides)) // deny all
	src, _ := NewServer("127.0.0.1:0", srcStore, srcHost, trust)
	defer src.Close()
	dst, _ := NewServer("127.0.0.1:0", dstStore, dstHost, trust)
	defer dst.Close()
	srcStore.PutOwned(alice.Identity(), "/f", []byte("x"))
	err := ThirdPartyTransfer(alice, trust, src.Addr(), src.Identity(), dst.Addr(), dst.Identity(), "/f", "/f")
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("transfer into deny-all store: %v", err)
	}
}

func TestCommandCodec(t *testing.T) {
	msg, err := encodeCmd("PUT", "/path/with\x01weird", []byte{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	verb, path, payload, err := decodeCmd(msg)
	if err != nil || verb != "PUT" || path != "/path/with\x01weird" || !bytes.Equal(payload, []byte{0, 1, 2}) {
		t.Fatalf("%v %q %q %v", err, verb, path, payload)
	}
	if _, _, _, err := decodeCmd([]byte("nonulls")); err == nil {
		t.Fatal("malformed command accepted")
	}
}

// Regression: a hostile path (or verb) carrying a NUL byte used to
// shift the frame silently — "evil\x00smuggled" encoded as path would
// decode with "evil" as the path and "smuggled\x00..." flowing into the
// payload, letting an attacker move bytes between authorization-relevant
// fields. encodeCmd must reject it outright.
func TestCommandCodecRejectsNULInjection(t *testing.T) {
	if _, err := encodeCmd(opPutS, "/evil\x00/smuggled", nil); err == nil {
		t.Fatal("NUL in path accepted at encode")
	}
	if _, err := encodeCmd("PU\x00TS", "/fine", nil); err == nil {
		t.Fatal("NUL in verb accepted at encode")
	}
	// The pre-fix frame an injecting encoder would have produced: the
	// decoder must refuse to dispatch it as a valid command rather than
	// silently reinterpreting the smuggled bytes.
	hostile := []byte("PU\x00TS\x00/evil")
	if verb, _, _, err := decodeCmd(hostile); err == nil && verb == opPutS {
		t.Fatalf("shifted frame decoded as %q", verb)
	}
	// End-to-end: the client refuses to send the command at all.
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := put(c, "/data\x00/injected", []byte("x")); err == nil {
		t.Fatal("Put with NUL path accepted")
	}
	if _, err := c.Get("/data\x00/injected"); err == nil {
		t.Fatal("Get with NUL path accepted")
	}
	// The refusal is local; the session stays usable.
	if err := put(c, "/data/clean", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSecuredTransfer64K(b *testing.B) {
	bd := newBed(b, openAll("/O=Grid/CN=Alice"))
	c, err := Dial(bd.srv.Addr(), bd.alice, bd.trust, bd.srv.Identity())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{7}, 64<<10)
	if err := put(c, "/bench", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("/bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// Streamed transfers are unbounded: a payload larger than the old
// whole-message cap (wire.MaxField, 16 MiB) crosses in 256 KiB chunk
// records and survives intact, and the session stays usable.
func TestStreamedTransferBeyondOldCap(t *testing.T) {
	if testing.Short() {
		t.Skip("17 MiB transfer")
	}
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	defer b.srv.Close()
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := make([]byte, 17<<20) // > wire.MaxField
	for i := range big {
		big[i] = byte(i>>8) ^ byte(i)
	}
	if _, err := c.PutFrom("/big/dataset", bytes.NewReader(big)); err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	n, err := c.GetTo("/big/dataset", &back)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(big)) || !bytes.Equal(back.Bytes(), big) {
		t.Fatalf("big transfer corrupted: %d bytes", n)
	}
	// Session still serves ordinary commands after two streams.
	names, err := c.List("/big/")
	if err != nil || len(names) != 1 {
		t.Fatalf("post-stream list: %v %v", names, err)
	}
}

// An aborted PUT discards the partial file server-side and leaves the
// session usable.
func TestStreamedPutAbort(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	defer b.srv.Close()
	c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w, err := c.PutStream("/wip/half", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 600_000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort("client changed its mind"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/wip/half"); err == nil {
		t.Fatal("partial file materialized despite abort")
	}
	// Unauthorized PUT is refused before any data is invited.
	if err := put(c, "/ok/after", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/ok/after")
	if err != nil || string(got) != "fine" {
		t.Fatalf("post-abort session unusable: %q %v", got, err)
	}
}

// A PUT denied by policy is rejected at the command stage — the client
// never streams a byte.
func TestStreamedPutDeniedUpFront(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	defer b.srv.Close()
	c, err := Dial(b.srv.Addr(), b.bob, b.trust, b.srv.Identity())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PutStream("/secret/file", 0); err == nil {
		t.Fatal("unauthorized streamed PUT accepted")
	}
	// The refusal left no half-open stream: further commands work.
	if _, err := c.List("/"); err == nil {
		t.Fatal("bob should be denied list too")
	}
}

// TestSilentClientDoesNotStallAccept: a TCP connection that never sends
// its first handshake token holds up only itself — the next client's
// Dial completes while it sits there.
func TestSilentClientDoesNotStallAccept(t *testing.T) {
	b := newBed(t, openAll("/O=Grid/CN=Alice"))
	silent, err := net.Dial("tcp", b.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it first

	dialed := make(chan error, 1)
	go func() {
		c, err := Dial(b.srv.Addr(), b.alice, b.trust, b.srv.Identity())
		if err == nil {
			c.Close()
		}
		dialed <- err
	}()
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatalf("Dial behind a silent client: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Dial still blocked behind a silent client after 2s")
	}
}
