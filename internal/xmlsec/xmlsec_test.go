package xmlsec

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/proxy"
	"repro/internal/soap"
)

type bed struct {
	ts    *gridcert.TrustStore
	alice *gridcert.Credential
}

func newBed(t testing.TB) bed {
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
	return bed{ts: ts, alice: alice}
}

func TestSignVerifyEnvelope(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("gram/create", []byte("job"))
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	info, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts})
	if err != nil {
		t.Fatal(err)
	}
	if info.Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("signer = %q", info.Identity)
	}
}

func TestSignatureSurvivesWire(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("gram/create", []byte("job"))
	env.To = "gsh://resource/mmjfs"
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyEnvelope(got, VerifyOptions{TrustStore: b.ts}); err != nil {
		t.Fatalf("signature broken by wire round trip: %v", err)
	}
}

func TestVerifyDetectsBodyTampering(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", []byte("original"))
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	env.Body = []byte("tampered")
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts}); err == nil {
		t.Fatal("body tampering not detected")
	}
}

func TestVerifyDetectsActionTampering(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("benign/read", nil)
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	env.Action = "destructive/delete"
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts}); err == nil {
		t.Fatal("action tampering not detected")
	}
}

func TestVerifyCoveredHeaderTampering(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", nil)
	env.SetHeader("CAS", []byte("assertion-1"))
	if err := SignEnvelope(env, b.alice, "CAS"); err != nil {
		t.Fatal(err)
	}
	env.SetHeader("CAS", []byte("assertion-2"))
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts}); err == nil {
		t.Fatal("covered header tampering not detected")
	}
}

func TestUncoveredHeaderMayChange(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", nil)
	env.SetHeader("routing-hint", []byte("hop1"))
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	env.SetHeader("routing-hint", []byte("hop2")) // intermediaries may rewrite
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts}); err != nil {
		t.Fatalf("uncovered header change broke signature: %v", err)
	}
}

func TestVerifyUnsignedEnvelope(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", nil)
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts}); err == nil {
		t.Fatal("unsigned envelope verified")
	}
}

func TestVerifyStaleTimestamp(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", nil)
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	// Check at a future time beyond MaxAge.
	_, err := VerifyEnvelope(env, VerifyOptions{
		TrustStore: b.ts,
		MaxAge:     time.Minute,
		Now:        time.Now().Add(10 * time.Minute),
	})
	if err == nil || !strings.Contains(err.Error(), "freshness") {
		t.Fatalf("stale envelope accepted: %v", err)
	}
}

// TestStaleEnvelopeCostsNoChainCheck: freshness is checked before the
// signer's chain, so a stale envelope from a signer the store has never
// seen is refused with no certificate signature checked.
func TestStaleEnvelopeCostsNoChainCheck(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", nil)
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	before := b.ts.SignatureStats().Checks
	_, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts, Now: time.Now().Add(time.Hour)})
	if err == nil || !strings.Contains(err.Error(), "freshness") {
		t.Fatalf("stale envelope: %v", err)
	}
	if got := b.ts.SignatureStats().Checks - before; got != 0 {
		t.Fatalf("a stale envelope cost %d certificate-signature checks", got)
	}
}

// TestUncoveredTimestampRefused: the timestamp counts only if the
// signature covers it. An envelope signed, validly, over a covered list
// the sender chose without the timestamp is refused, whatever its
// timestamp header says.
func TestUncoveredTimestampRefused(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", []byte("body"))
	env.SetHeader(TimestampHeader, []byte(time.Now().UTC().Format(time.RFC3339Nano)))
	sig, err := b.alice.Key.Sign(env.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	block := signatureBlock{chain: gridcert.EncodeChain(b.alice.Chain), sigValue: sig}
	env.SetHeader(SignatureHeader, block.encode())
	if err := b.alice.Leaf().PublicKey.Verify(env.Canonical(block.covered...), sig); err != nil {
		t.Fatalf("the hand-built signature does not verify over what it covers: %v", err)
	}
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts}); err == nil || !strings.Contains(err.Error(), "does not cover the timestamp") {
		t.Fatalf("envelope whose signature omits the timestamp: %v", err)
	}
}

func TestVerifyUntrustedSigner(t *testing.T) {
	b := newBed(t)
	env := soap.NewEnvelope("op", nil)
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: gridcert.NewTrustStore()}); err == nil {
		t.Fatal("untrusted signer accepted")
	}
}

func TestSignWithProxyRejectLimited(t *testing.T) {
	b := newBed(t)
	lim, err := proxy.New(b.alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	env := soap.NewEnvelope("gram/create", []byte("job"))
	if err := SignEnvelope(env, lim); err != nil {
		t.Fatal(err)
	}
	// Verification succeeds generally…
	info, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Limited {
		t.Fatal("limited flag lost")
	}
	// …but job-creation verifiers reject limited proxies.
	if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: b.ts, RejectLimited: true}); err == nil {
		t.Fatal("limited proxy accepted with RejectLimited")
	}
}

// TestVerifyEnvelopeWarmSignerStillChecked: a second envelope from a
// signer whose every link the store has in its memo is spared the curve
// arithmetic and nothing else — not the signer's expiry, the envelope's own
// signature, its freshness, or the limited-proxy rule.
func TestVerifyEnvelopeWarmSignerStillChecked(t *testing.T) {
	b := newBed(t)
	opts := VerifyOptions{TrustStore: b.ts}
	sign := func(cred *gridcert.Credential, body string) *soap.Envelope {
		env := soap.NewEnvelope("gram/create", []byte(body))
		if err := SignEnvelope(env, cred); err != nil {
			t.Fatal(err)
		}
		return env
	}
	short, err := proxy.New(b.alice, proxy.Options{Lifetime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantChecks := range []uint64{uint64(len(short.Chain)), 0} {
		before := b.ts.SignatureStats().Checks
		info, err := VerifyEnvelope(sign(short, "job"), opts)
		if err != nil || info.Identity.String() != "/O=Grid/CN=Alice" {
			t.Fatalf("verify %d: %v %v", i, info, err)
		}
		if got := b.ts.SignatureStats().Checks - before; got != wantChecks {
			t.Fatalf("verify %d: %d certificate-signature checks, want %d", i, got, wantChecks)
		}
	}
	// An hour past the proxy's NotAfter the signer is refused as expired,
	// every link in the memo or not (under a window wide enough that the
	// freshness check, which comes first, lets the envelope that far).
	late := short.Leaf().NotAfter.Add(time.Hour)
	if _, err := VerifyEnvelope(sign(short, "job"), VerifyOptions{TrustStore: b.ts, Now: late, MaxAge: 2 * time.Hour}); !errors.Is(err, gridcert.ErrExpired) {
		t.Fatalf("envelope from a signer an hour past its proxy's NotAfter: %v", err)
	}
	// A remembered chain does not carry a tampered body through.
	env := sign(short, "job")
	env.Body = []byte("tampered")
	if _, err := VerifyEnvelope(env, opts); err == nil {
		t.Fatal("tampered body accepted from a remembered signer")
	}
	// Nor a stale timestamp.
	if _, err := VerifyEnvelope(sign(b.alice, "job"), VerifyOptions{TrustStore: b.ts, Now: time.Now().Add(time.Hour)}); err == nil {
		t.Fatal("stale envelope accepted from a remembered signer")
	}
	// A limited proxy validated where limited proxies are acceptable is
	// still refused where they are not.
	limited, err := proxy.New(b.alice, proxy.Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyEnvelope(sign(limited, "job"), opts); err != nil {
		t.Fatal(err)
	}
	opts.RejectLimited = true
	if _, err := VerifyEnvelope(sign(limited, "job"), opts); !errors.Is(err, gridcert.ErrLimitedProxy) {
		t.Fatalf("limited proxy under RejectLimited, links remembered: %v", err)
	}
}

func TestStatelessCreateBeforeRecipientExists(t *testing.T) {
	// The §5.1 stateless property: the message is created and signed with
	// no knowledge of the recipient; any verifier with the trust roots
	// can later check it.
	b := newBed(t)
	env := soap.NewEnvelope("gram/createService", []byte("job for a service that does not exist yet"))
	if err := SignEnvelope(env, b.alice); err != nil {
		t.Fatal(err)
	}
	wire, _ := env.Marshal()

	// "Later", a freshly created service verifies it.
	later, err := soap.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	info, err := VerifyEnvelope(later, VerifyOptions{TrustStore: b.ts})
	if err != nil {
		t.Fatal(err)
	}
	if info.Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("identity = %q", info.Identity)
	}
}

func BenchmarkSignEnvelope(b *testing.B) {
	bed := newBed(b)
	body := bytes.Repeat([]byte{1}, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := soap.NewEnvelope("op", body)
		if err := SignEnvelope(env, bed.alice); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyEnvelope(b *testing.B) {
	bed := newBed(b)
	env := soap.NewEnvelope("op", bytes.Repeat([]byte{1}, 1024))
	if err := SignEnvelope(env, bed.alice); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyEnvelope(env, VerifyOptions{TrustStore: bed.ts}); err != nil {
			b.Fatal(err)
		}
	}
}
