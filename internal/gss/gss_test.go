package gss

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/proxy"
)

// testbed builds a CA, two user credentials, and a shared trust store.
type testbed struct {
	auth  *ca.Authority
	ts    *gridcert.TrustStore
	alice *gridcert.Credential
	bob   *gridcert.Credential
}

func newTestbed(t testing.TB) *testbed {
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
	bob, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Bob"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{auth: auth, ts: ts, alice: alice, bob: bob}
}

// TestDelegateFlagReachesAcceptor: an initiator configured to delegate
// announces it in token1, where the acceptor reads it.
func TestDelegateFlagReachesAcceptor(t *testing.T) {
	tb := newTestbed(t)
	for _, delegate := range []bool{false, true} {
		init, err := NewInitiator(Config{Credential: tb.alice, TrustStore: tb.ts, Delegate: delegate})
		if err != nil {
			t.Fatal(err)
		}
		t1, err := init.Start()
		if err != nil {
			t.Fatal(err)
		}
		acc, err := NewAcceptor(Config{Credential: tb.bob, TrustStore: tb.ts})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := acc.Accept(t1); err != nil {
			t.Fatal(err)
		}
		if got := acc.flags&FlagDelegate != 0; got != delegate {
			t.Fatalf("Delegate %v: the acceptor read the delegation flag as %v", delegate, got)
		}
	}
}

func TestEstablishMutual(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := ictx.Peer().Identity.String(); got != "/O=Grid/CN=Bob" {
		t.Fatalf("initiator saw peer %q", got)
	}
	if got := actx.Peer().Identity.String(); got != "/O=Grid/CN=Alice" {
		t.Fatalf("acceptor saw peer %q", got)
	}
	if ictx.Peer().Anonymous || actx.Peer().Anonymous {
		t.Fatal("unexpected anonymity")
	}
}

func TestEstablishWithProxyCredential(t *testing.T) {
	tb := newTestbed(t)
	p, err := proxy.New(tb.alice, proxy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, actx, err := Establish(
		Config{Credential: p, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptor sees Alice's identity even though a proxy authenticated.
	if got := actx.Peer().Identity.String(); got != "/O=Grid/CN=Alice" {
		t.Fatalf("peer identity through proxy = %q", got)
	}
	if actx.Peer().Info.ProxyDepth != 1 {
		t.Fatalf("ProxyDepth = %d", actx.Peer().Info.ProxyDepth)
	}
}

func TestWrapUnwrapBothDirections(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w, err := ictx.Wrap([]byte("from initiator"))
		if err != nil {
			t.Fatal(err)
		}
		pt, err := actx.Unwrap(w)
		if err != nil {
			t.Fatal(err)
		}
		if string(pt) != "from initiator" {
			t.Fatalf("got %q", pt)
		}
		w2, err := actx.Wrap([]byte("from acceptor"))
		if err != nil {
			t.Fatal(err)
		}
		pt2, err := ictx.Unwrap(w2)
		if err != nil {
			t.Fatal(err)
		}
		if string(pt2) != "from acceptor" {
			t.Fatalf("got %q", pt2)
		}
	}
}

func TestUnwrapRejectsReplayAndTamper(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ictx.Wrap([]byte("once"))
	if _, err := actx.Unwrap(w); err != nil {
		t.Fatal(err)
	}
	if _, err := actx.Unwrap(w); err == nil {
		t.Fatal("replayed wrap token accepted")
	}
	w2, _ := ictx.Wrap([]byte("two"))
	w2[len(w2)-1] ^= 1
	if _, err := actx.Unwrap(w2); err == nil {
		t.Fatal("tampered wrap token accepted")
	}
}

func TestMIC(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("signed but not encrypted")
	mic := ictx.GetMIC(msg)
	if err := actx.VerifyMIC(msg, mic); err != nil {
		t.Fatal(err)
	}
	if err := actx.VerifyMIC([]byte("other"), mic); err == nil {
		t.Fatal("MIC verified for wrong message")
	}
	// A MIC from the acceptor verifies on the initiator, not vice versa on itself.
	mic2 := actx.GetMIC(msg)
	if err := ictx.VerifyMIC(msg, mic2); err != nil {
		t.Fatal(err)
	}
	if err := actx.VerifyMIC(msg, mic2); err == nil {
		t.Fatal("context verified its own MIC as the peer's")
	}
}

func TestAnonymousInitiator(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Anonymous: true, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !actx.Peer().Anonymous {
		t.Fatal("acceptor did not record anonymous peer")
	}
	if ictx.Peer().Identity.String() != "/O=Grid/CN=Bob" {
		t.Fatal("anonymous initiator still authenticates the acceptor")
	}
	// Message protection still works.
	w, _ := ictx.Wrap([]byte("anon"))
	if pt, err := actx.Unwrap(w); err != nil || string(pt) != "anon" {
		t.Fatalf("anon wrap: %v %q", err, pt)
	}
}

func TestExpectedPeerMismatch(t *testing.T) {
	tb := newTestbed(t)
	_, _, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts, ExpectedPeer: gridcert.MustParseName("/O=Grid/CN=Carol")},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("expected-peer mismatch not caught: %v", err)
	}
}

func TestRejectLimitedPeer(t *testing.T) {
	tb := newTestbed(t)
	lim, err := proxy.New(tb.alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Establish(
		Config{Credential: lim, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts, RejectLimited: true},
	)
	if err == nil {
		t.Fatal("limited proxy accepted despite RejectLimited")
	}
}

func TestUntrustedPeerRejected(t *testing.T) {
	tb := newTestbed(t)
	// Bob's trust store does not contain Alice's CA.
	otherAuth, err := ca.New(gridcert.MustParseName("/O=Other/CN=CA"), time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := otherAuth.NewEntity(gridcert.MustParseName("/O=Other/CN=Mallory"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Establish(
		Config{Credential: mallory, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err == nil {
		t.Fatal("initiator from untrusted CA accepted")
	}
}

func TestTokenTamperingDetected(t *testing.T) {
	tb := newTestbed(t)
	init, err := NewInitiator(Config{Credential: tb.alice, TrustStore: tb.ts})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAcceptor(Config{Credential: tb.bob, TrustStore: tb.ts})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := init.Start()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := acc.Accept(t1)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with token2 (flip a bit in the middle: hits chain or share).
	bad := append([]byte(nil), t2...)
	bad[len(bad)/2] ^= 0x40
	if _, _, err := init.Finish(bad); err == nil {
		t.Fatal("tampered token2 accepted")
	}
}

func TestToken3SubstitutionDetected(t *testing.T) {
	tb := newTestbed(t)
	// Run two parallel handshakes and cross-feed token3: the transcript
	// binding must reject it.
	i1, _ := NewInitiator(Config{Credential: tb.alice, TrustStore: tb.ts})
	i2, _ := NewInitiator(Config{Credential: tb.alice, TrustStore: tb.ts})
	a1, _ := NewAcceptor(Config{Credential: tb.bob, TrustStore: tb.ts})
	a2, _ := NewAcceptor(Config{Credential: tb.bob, TrustStore: tb.ts})
	t1a, _ := i1.Start()
	t1b, _ := i2.Start()
	t2a, _ := a1.Accept(t1a)
	t2b, _ := a2.Accept(t1b)
	t3a, _, err := i1.Finish(t2a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := i2.Finish(t2b); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.Complete(t3a); err == nil {
		t.Fatal("token3 from a different session accepted")
	}
}

func TestContextExpiry(t *testing.T) {
	tb := newTestbed(t)
	now := time.Now()
	clock := func() time.Time { return now }
	ictx, _, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts, Lifetime: time.Minute, Now: clock},
		Config{Credential: tb.bob, TrustStore: tb.ts, Now: clock},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ictx.Expired() {
		t.Fatal("fresh context expired")
	}
	now = now.Add(2 * time.Minute)
	if !ictx.Expired() {
		t.Fatal("context did not expire")
	}
	if _, err := ictx.Wrap([]byte("x")); err != ErrContextExpired {
		t.Fatalf("Wrap on expired context: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	tb := newTestbed(t)
	if _, err := NewInitiator(Config{TrustStore: tb.ts}); err == nil {
		t.Fatal("initiator without credential accepted")
	}
	if _, err := NewInitiator(Config{Credential: tb.alice}); err == nil {
		t.Fatal("initiator without trust store accepted")
	}
	if _, err := NewAcceptor(Config{TrustStore: tb.ts}); err == nil {
		t.Fatal("acceptor without credential accepted")
	}
	// Anonymous initiator without credential is fine.
	if _, err := NewInitiator(Config{Anonymous: true, TrustStore: tb.ts}); err != nil {
		t.Fatal(err)
	}
}

func TestStateMachineMisuse(t *testing.T) {
	tb := newTestbed(t)
	init, _ := NewInitiator(Config{Credential: tb.alice, TrustStore: tb.ts})
	if _, _, err := init.Finish([]byte("x")); err == nil {
		t.Fatal("Finish before Start accepted")
	}
	if _, err := init.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := init.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	acc, _ := NewAcceptor(Config{Credential: tb.bob, TrustStore: tb.ts})
	if _, err := acc.Complete([]byte("x")); err == nil {
		t.Fatal("Complete before Accept accepted")
	}
}

func TestLargeMessageWrap(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	w, err := ictx.Wrap(big)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := actx.Unwrap(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, big) {
		t.Fatal("1MiB round trip mismatch")
	}
}

func BenchmarkContextEstablishment(b *testing.B) {
	tb := newTestbed(b)
	icfg := Config{Credential: tb.alice, TrustStore: tb.ts}
	acfg := Config{Credential: tb.bob, TrustStore: tb.ts}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Establish(icfg, acfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrapUnwrap1K(b *testing.B) {
	tb := newTestbed(b)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{1}, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := ictx.Wrap(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := actx.Unwrap(w); err != nil {
			b.Fatal(err)
		}
	}
}

// WrapInto with the documented in-place layout must interoperate with
// both Unwrap shims, reuse the caller's buffer, and stay compatible with
// tokens produced by the plain Wrap shim.
func TestWrapIntoUnwrapInPlace(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("zero copy record payload")

	// In-place wrap: plaintext assembled at WrapPrefix, sealed in situ.
	buf := make([]byte, WrapPrefix+len(msg), WrapPrefix+len(msg)+WrapOverhead)
	copy(buf[WrapPrefix:], msg)
	token, err := ictx.WrapInto(buf[:0], buf[WrapPrefix:])
	if err != nil {
		t.Fatal(err)
	}
	if &token[0] != &buf[0] {
		t.Fatal("WrapInto reallocated despite sufficient capacity")
	}
	if len(token) != len(msg)+WrapOverhead {
		t.Fatalf("token length %d, want %d", len(token), len(msg)+WrapOverhead)
	}

	// In-place unwrap: plaintext is a view into the token.
	pt, err := actx.UnwrapInPlace(token)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != string(msg) {
		t.Fatalf("round trip: %q", pt)
	}
	if &pt[0] != &token[WrapPrefix] {
		t.Fatal("UnwrapInPlace copied instead of decrypting in place")
	}

	// Shim interop both ways.
	w, err := ictx.Wrap(msg)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := actx.UnwrapInPlace(w)
	if err != nil || string(pt2) != string(msg) {
		t.Fatalf("shim Wrap -> UnwrapInPlace: %q, %v", pt2, err)
	}
	tok3, err := actx.WrapInto(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	pt3, err := ictx.Unwrap(tok3)
	if err != nil || string(pt3) != string(msg) {
		t.Fatalf("WrapInto -> shim Unwrap: %q, %v", pt3, err)
	}

	// A tampered length field is rejected before any crypto.
	bad, err := ictx.Wrap(msg)
	if err != nil {
		t.Fatal(err)
	}
	bad[8]++
	if _, err := actx.UnwrapInPlace(bad); err == nil {
		t.Fatal("tampered wrap-token length accepted")
	}
}

// A chunk token carries its header in the clear and opens in place or
// onto a destination; the header is bound, and chunk and message tokens
// never open as each other.
func TestChunkTokenRoundTripAndSeparation(t *testing.T) {
	tb := newTestbed(t)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		t.Fatal(err)
	}
	hdr := []byte{1, 0, 0, 0, 0, 0, 0, 0, 42}
	hl := len(hdr)
	payload := []byte("sealed from where it lies")

	token, err := ictx.WrapChunkInto(nil, hdr, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(token) != WrapOverhead+hl+len(payload) || !bytes.Equal(token[WrapPrefix:WrapPrefix+hl], hdr) {
		t.Fatalf("chunk token layout: %d bytes, header % x", len(token), token[WrapPrefix:WrapPrefix+hl])
	}
	at := WrapPrefix + hl
	gotHdr, pt, err := actx.UnwrapChunkInto(token[at:at], token, hl)
	if err != nil || !bytes.Equal(gotHdr, hdr) || !bytes.Equal(pt, payload) || &pt[0] != &token[at] {
		t.Fatalf("in-place open: % x %q %v", gotHdr, pt, err)
	}

	token, _ = ictx.WrapChunkInto(nil, hdr, payload)
	_, out, err := actx.UnwrapChunkInto([]byte("dst:"), token, hl)
	if err != nil || string(out) != "dst:"+string(payload) {
		t.Fatalf("open onto dst: %q %v", out, err)
	}

	// Any flipped header or length byte fails the open, and the failed
	// open leaves the opener where it was: the untouched token still opens.
	for i := 8; i < at; i++ {
		token, _ = ictx.WrapChunkInto(nil, hdr, payload)
		bad := bytes.Clone(token)
		bad[i] ^= 0x01
		if _, _, err := actx.UnwrapChunkInto(nil, bad, hl); err == nil {
			t.Fatalf("chunk token with byte %d flipped opened", i)
		}
		if _, _, err := actx.UnwrapChunkInto(nil, token, hl); err != nil {
			t.Fatalf("after the refusal of byte %d: %v", i, err)
		}
	}

	// A chunk token is no message token, and a message token no chunk
	// token, though each is in sequence and of a well-formed length.
	token, _ = ictx.WrapChunkInto(nil, hdr, payload)
	if _, err := actx.Unwrap(token); !errors.Is(err, gridcrypto.ErrOpenFailed) {
		t.Fatalf("chunk token opened as a message: %v", err)
	}
	if _, _, err := actx.UnwrapChunkInto(nil, token, hl); err != nil {
		t.Fatalf("chunk token refused as a chunk after its message refusal: %v", err)
	}
	msg, _ := ictx.Wrap(bytes.Repeat([]byte{1}, 40))
	if _, _, err := actx.UnwrapChunkInto(nil, msg, hl); !errors.Is(err, gridcrypto.ErrOpenFailed) {
		t.Fatalf("message token opened as a chunk: %v", err)
	}
}

// FuzzChunkTokenOpen: a chunk token sealed from any payload and header
// opens to exactly them; the same token with a hostile prefix, header or
// length — any byte of it overwritten, or the token cut or extended —
// never opens, never grows the destination, and leaves the opener where
// it was, so the genuine token opens after it.
func FuzzChunkTokenOpen(f *testing.F) {
	tb := newTestbed(f)
	ictx, actx, err := Establish(
		Config{Credential: tb.alice, TrustStore: tb.ts},
		Config{Credential: tb.bob, TrustStore: tb.ts},
	)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("payload"), []byte{1, 0, 0, 0, 0, 0, 0, 0, 7}, []byte{0, 0, 0, 0, 0, 0, 0, 1}, int8(0))
	f.Add([]byte{}, []byte{2}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, int8(-3))
	f.Add(bytes.Repeat([]byte{0xAB}, 300), []byte{}, []byte{}, int8(5))
	const hl = 9 // the record layer's chunk header
	f.Fuzz(func(t *testing.T, payload, hdr, overwrite []byte, resize int8) {
		nonce := make([]byte, ResumeNonceSize)
		send, err := ictx.Resume(nonce, nonce)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := actx.Resume(nonce, nonce)
		if err != nil {
			t.Fatal(err)
		}
		h := make([]byte, hl)
		copy(h, hdr)
		token, err := send.WrapChunkInto(nil, h, payload)
		if err != nil {
			t.Fatal(err)
		}

		hostile := bytes.Clone(token)
		copy(hostile, overwrite)
		if resize < 0 {
			hostile = hostile[:max(0, len(hostile)+int(resize))]
		} else {
			hostile = append(hostile, make([]byte, resize)...)
		}
		dst := []byte("dst")
		if !bytes.Equal(hostile, token) {
			if _, out, err := recv.UnwrapChunkInto(dst, hostile, hl); err == nil || len(out) != 0 {
				t.Fatalf("hostile chunk token opened: %d bytes, %v", len(out), err)
			}
		}
		gotHdr, out, err := recv.UnwrapChunkInto(dst, token, hl)
		if err != nil || !bytes.Equal(gotHdr, h) || !bytes.Equal(out[len(dst):], payload) || string(out[:len(dst)]) != "dst" {
			t.Fatalf("genuine chunk token: header % x, %d bytes, %v", gotHdr, len(out), err)
		}
	})
}
