package gridcert

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/gridcrypto"
)

func newStore(t testing.TB, roots ...*Certificate) *TrustStore {
	t.Helper()
	ts := NewTrustStore()
	for _, r := range roots {
		if err := ts.AddRoot(r); err != nil {
			t.Fatalf("AddRoot: %v", err)
		}
	}
	return ts
}

func TestVerifyEndEntity(t *testing.T) {
	caCert, _, userCert, _ := testPKI(t)
	ts := newStore(t, caCert)
	for _, chain := range [][]*Certificate{
		{userCert},         // root omitted
		{userCert, caCert}, // root included
	} {
		info, err := ts.Verify(chain, VerifyOptions{})
		if err != nil {
			t.Fatalf("Verify(len=%d): %v", len(chain), err)
		}
		if !info.Identity.Equal(userCert.Subject) {
			t.Fatalf("Identity = %q", info.Identity)
		}
		if info.ProxyDepth != 0 || info.Limited {
			t.Fatalf("unexpected proxy info: %+v", info)
		}
		if info.Root != caCert {
			t.Fatal("wrong root selected")
		}
	}
}

func TestVerifyProxyChain(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	p2, k2 := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	p3, _ := issueProxy(t, p2, k2, ProxyImpersonation, -1)
	info, err := ts.Verify([]*Certificate{p3, p2, p1, userCert}, VerifyOptions{})
	if err != nil {
		t.Fatalf("Verify 3-deep proxy chain: %v", err)
	}
	if info.ProxyDepth != 3 {
		t.Fatalf("ProxyDepth = %d", info.ProxyDepth)
	}
	if !info.Identity.Equal(userCert.Subject) {
		t.Fatalf("Identity = %q, want end-entity subject", info.Identity)
	}
	if !info.Subject.Equal(p3.Subject) {
		t.Fatalf("Subject = %q, want leaf subject", info.Subject)
	}
}

func TestVerifyUntrustedRoot(t *testing.T) {
	_, _, userCert, _ := testPKI(t)
	ts := NewTrustStore() // empty
	if _, err := ts.Verify([]*Certificate{userCert}, VerifyOptions{}); err == nil {
		t.Fatal("verified chain with no trusted root")
	}
}

func TestVerifyWrongCA(t *testing.T) {
	_, _, userCert, _ := testPKI(t)
	otherCA, _, err := NewSelfSignedCA(MustParseName("/O=Other/CN=CA"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	ts := newStore(t, otherCA)
	if _, err := ts.Verify([]*Certificate{userCert}, VerifyOptions{}); err == nil {
		t.Fatal("verified cert against unrelated CA")
	}
}

func TestVerifyExpired(t *testing.T) {
	// A CA whose validity covers the historical check below.
	caKey, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	caName := MustParseName("/O=Grid/CN=Backdated CA")
	caCert, err := Sign(Template{
		Type:       TypeCA,
		Subject:    caName,
		NotBefore:  time.Now().Add(-24 * time.Hour),
		NotAfter:   time.Now().Add(24 * time.Hour),
		KeyUsage:   UsageCertSign | UsageCRLSign,
		MaxPathLen: -1,
	}, caKey.Public(), caName, caKey)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	short, err := Sign(Template{
		Type:      TypeEndEntity,
		Subject:   MustParseName("/CN=shortlived"),
		NotBefore: time.Now().Add(-2 * time.Hour),
		NotAfter:  time.Now().Add(-1 * time.Hour),
	}, key.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatal(err)
	}
	ts := newStore(t, caCert)
	if _, err := ts.Verify([]*Certificate{short}, VerifyOptions{}); err == nil {
		t.Fatal("verified expired certificate")
	}
	// But it verifies at a time inside the window.
	if _, err := ts.Verify([]*Certificate{short}, VerifyOptions{Now: time.Now().Add(-90 * time.Minute)}); err != nil {
		t.Fatalf("verification at historical time: %v", err)
	}
}

func TestVerifyProxySubjectNameRule(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	// Hand-craft a proxy whose subject is NOT issuer+CN.
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	bad, err := Sign(Template{
		Type:    TypeProxy,
		Subject: MustParseName("/O=Evil/CN=Mallory/CN=proxy"),
		Proxy:   &ProxyInfo{Variant: ProxyImpersonation, PathLenConstraint: -1},
	}, key.Public(), userCert.Subject, userKey)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ts.Verify([]*Certificate{bad, userCert}, VerifyOptions{})
	if err == nil || !strings.Contains(err.Error(), "plus one CN") {
		t.Fatalf("subject-name rule not enforced: %v", err)
	}
}

func TestVerifyProxySignedByCARejected(t *testing.T) {
	caCert, caKey, _, _ := testPKI(t)
	ts := newStore(t, caCert)
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	p, err := Sign(Template{
		Type:    TypeProxy,
		Subject: caCert.Subject.WithCN("proxy-1"),
		Proxy:   &ProxyInfo{Variant: ProxyImpersonation, PathLenConstraint: -1},
	}, key.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify([]*Certificate{p, caCert}, VerifyOptions{}); err == nil {
		t.Fatal("proxy signed directly by CA accepted")
	}
}

func TestVerifyEndEntityBelowProxyRejected(t *testing.T) {
	caCert, caKey, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	// An end-entity certificate signed by a proxy key must be rejected.
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	rogue, err := Sign(Template{
		Type:    TypeEndEntity,
		Subject: MustParseName("/O=Grid/CN=Rogue"),
	}, key.Public(), p1.Subject, k1)
	if err != nil {
		t.Fatal(err)
	}
	_ = caKey
	if _, err := ts.Verify([]*Certificate{rogue, p1, userCert}, VerifyOptions{}); err == nil {
		t.Fatal("end entity below proxy accepted")
	}
}

func TestVerifyPathLenConstraint(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	// p1 allows at most 1 further proxy.
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, 1)
	p2, k2 := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	p3, _ := issueProxy(t, p2, k2, ProxyImpersonation, -1)
	if _, err := ts.Verify([]*Certificate{p2, p1, userCert}, VerifyOptions{}); err != nil {
		t.Fatalf("depth-1 below constraint should pass: %v", err)
	}
	if _, err := ts.Verify([]*Certificate{p3, p2, p1, userCert}, VerifyOptions{}); err == nil {
		t.Fatal("path-length constraint not enforced")
	}
}

func TestVerifyPathLenZero(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, 0)
	p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	if _, err := ts.Verify([]*Certificate{p2, p1, userCert}, VerifyOptions{}); err == nil {
		t.Fatal("pathlen=0 proxy allowed a child proxy")
	}
}

func TestVerifyLimitedProxy(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyLimited, -1)
	chain := []*Certificate{p1, userCert}
	info, err := ts.Verify(chain, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Limited {
		t.Fatal("limited proxy not flagged")
	}
	if _, err := ts.Verify(chain, VerifyOptions{RejectLimited: true}); err == nil {
		t.Fatal("RejectLimited did not reject limited proxy")
	}
	// Limitation is sticky: a full proxy under a limited one still yields
	// a limited chain.
	p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	info2, err := ts.Verify([]*Certificate{p2, p1, userCert}, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Limited {
		t.Fatal("limited flag lost below limited proxy")
	}
}

func TestVerifyRestrictedProxyCollectsPolicy(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, _ := issueProxy(t, userCert, userKey, ProxyRestricted, -1)
	info, err := ts.Verify([]*Certificate{p1, userCert}, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Restricted) != 1 || info.Restricted[0].PolicyLanguage != "grid.cas.v1" {
		t.Fatalf("Restricted = %+v", info.Restricted)
	}
}

func TestVerifyMaxProxyDepthOption(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	if _, err := ts.Verify([]*Certificate{p2, p1, userCert}, VerifyOptions{MaxProxyDepth: 1}); err == nil {
		t.Fatal("MaxProxyDepth not enforced")
	}
}

func TestVerifyBrokenSignatureInMiddle(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	// Corrupt p1's signature.
	p1.Signature = append([]byte(nil), p1.Signature...)
	p1.Signature[0] ^= 1
	if _, err := ts.Verify([]*Certificate{p2, p1, userCert}, VerifyOptions{}); err == nil {
		t.Fatal("broken middle signature accepted")
	}
}

// TestVerifyChecksEachSignatureOnce: a store checks a link's signature
// once. A chain of n certificates below the root costs n checks the first
// time — the top certificate's, against the root found by its issuer name,
// included — and none when repeated; a chain that extends one already
// verified pays only for its new links; carrying the root or not makes no
// difference to either count. A top certificate whose signature does not
// verify is still refused as a bad signature.
func TestVerifyChecksEachSignatureOnce(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	type step struct {
		chain []*Certificate
		want  uint64
	}
	for name, steps := range map[string][]step{
		"whole chain, then again": {
			{[]*Certificate{p2, p1, userCert}, 3},
			{[]*Certificate{p2, p1, userCert}, 0},
			{[]*Certificate{p2, p1, userCert, caCert}, 0},
		},
		"root carried first": {
			{[]*Certificate{p2, p1, userCert, caCert}, 3},
			{[]*Certificate{p2, p1, userCert}, 0},
		},
		"growing from a verified prefix": {
			{[]*Certificate{userCert}, 1},
			{[]*Certificate{p1, userCert}, 1},
			{[]*Certificate{p2, p1, userCert, caCert}, 1},
			{[]*Certificate{p1, userCert}, 0},
		},
	} {
		ts := newStore(t, caCert)
		for i, st := range steps {
			links := uint64(len(st.chain)) // every certificate but the anchor
			if st.chain[len(st.chain)-1] == caCert {
				links--
			}
			before := ts.SignatureStats()
			info, err := ts.Verify(st.chain, VerifyOptions{})
			if err != nil {
				t.Fatalf("%s, step %d: %v", name, i, err)
			}
			if !info.Identity.Equal(userCert.Subject) || uint64(info.ProxyDepth) != links-1 {
				t.Errorf("%s, step %d: identity %q depth %d", name, i, info.Identity, info.ProxyDepth)
			}
			after := ts.SignatureStats()
			if got := after.Checks - before.Checks; got != st.want {
				t.Errorf("%s, step %d: %d signature checks, want %d", name, i, got, st.want)
			}
			if got := after.MemoHits - before.MemoHits; got != links-st.want {
				t.Errorf("%s, step %d: %d memo hits, want %d", name, i, got, links-st.want)
			}
		}
	}

	ts := newStore(t, caCert)
	if _, err := ts.Verify([]*Certificate{p1, userCert}, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	userCert.Signature = append([]byte(nil), userCert.Signature...)
	userCert.Signature[0] ^= 1
	for _, chain := range [][]*Certificate{{userCert}, {p1, userCert}, {p1, userCert, caCert}} {
		if _, err := ts.Verify(chain, VerifyOptions{}); !errors.Is(err, gridcrypto.ErrBadSignature) {
			t.Fatalf("tampered top certificate (chain of %d): %v", len(chain), err)
		}
	}
}

func TestVerifyIntermediateCA(t *testing.T) {
	rootCert, rootKey, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=Root"), 24*time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	interKey, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	interCert, err := Sign(Template{
		Type:       TypeCA,
		Subject:    MustParseName("/O=Grid/CN=Intermediate"),
		KeyUsage:   UsageCertSign | UsageCRLSign,
		MaxPathLen: 0,
	}, interKey.Public(), rootCert.Subject, rootKey)
	if err != nil {
		t.Fatal(err)
	}
	userKey, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	userCert, err := Sign(Template{
		Type:    TypeEndEntity,
		Subject: MustParseName("/O=Grid/CN=Bob"),
	}, userKey.Public(), interCert.Subject, interKey)
	if err != nil {
		t.Fatal(err)
	}
	ts := newStore(t, rootCert)
	info, err := ts.Verify([]*Certificate{userCert, interCert, rootCert}, VerifyOptions{})
	if err != nil {
		t.Fatalf("intermediate chain: %v", err)
	}
	if !info.Identity.Equal(userCert.Subject) {
		t.Fatalf("Identity = %q", info.Identity)
	}
}

func TestAddRootValidation(t *testing.T) {
	caCert, _, userCert, _ := testPKI(t)
	ts := NewTrustStore()
	if err := ts.AddRoot(userCert); err == nil {
		t.Fatal("AddRoot accepted non-CA")
	}
	interKey, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	_, caKey2, _ := NewSelfSignedCA(MustParseName("/CN=Other"), time.Hour, gridcrypto.AlgEd25519)
	inter, err := Sign(Template{
		Type: TypeCA, Subject: MustParseName("/CN=NotSelfSigned"),
		KeyUsage: UsageCertSign,
	}, interKey.Public(), MustParseName("/CN=Other"), caKey2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddRoot(inter); err == nil {
		t.Fatal("AddRoot accepted non-self-signed cert")
	}
	if err := ts.AddRoot(caCert); err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 1 {
		t.Fatalf("Len = %d", ts.Len())
	}
	ts.RemoveRoot(caCert.Subject)
	if ts.Len() != 0 {
		t.Fatal("RemoveRoot did not remove")
	}
}

func TestCRLRevocation(t *testing.T) {
	caCert, caKey, userCert, _ := testPKI(t)
	ts := newStore(t, caCert)
	if _, err := ts.Verify([]*Certificate{userCert}, VerifyOptions{}); err != nil {
		t.Fatalf("pre-revocation verify: %v", err)
	}
	crl, err := NewCRL(caCert.Subject, 1, []uint64{userCert.SerialNumber}, caKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify([]*Certificate{userCert}, VerifyOptions{}); err == nil {
		t.Fatal("revoked certificate accepted")
	}
}

func TestCRLEncodeDecodeAndMonotonicity(t *testing.T) {
	caCert, caKey, _, _ := testPKI(t)
	ts := newStore(t, caCert)
	crl2, _ := NewCRL(caCert.Subject, 2, []uint64{5, 3, 9}, caKey)
	enc := crl2.Encode()
	dec, err := DecodeCRL(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Number != 2 || len(dec.Serials) != 3 {
		t.Fatalf("decoded CRL: %+v", dec)
	}
	// Serials must be sorted for Contains to work.
	if !dec.Contains(3) || !dec.Contains(5) || !dec.Contains(9) || dec.Contains(4) {
		t.Fatal("Contains broken after round trip")
	}
	if err := ts.AddCRL(dec); err != nil {
		t.Fatal(err)
	}
	older, _ := NewCRL(caCert.Subject, 1, nil, caKey)
	if err := ts.AddCRL(older); err == nil {
		t.Fatal("older CRL replaced newer one")
	}
}

func TestCRLWrongSigner(t *testing.T) {
	caCert, _, _, userKey := testPKI(t)
	ts := newStore(t, caCert)
	forged, err := NewCRL(caCert.Subject, 3, []uint64{1}, userKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(forged); err == nil {
		t.Fatal("CRL signed by non-CA key accepted")
	}
}

func TestVerifyEmptyAndOversizedChain(t *testing.T) {
	caCert, _, userCert, _ := testPKI(t)
	ts := newStore(t, caCert)
	if _, err := ts.Verify(nil, VerifyOptions{}); err == nil {
		t.Fatal("empty chain accepted")
	}
	big := make([]*Certificate, maxChainLen+1)
	for i := range big {
		big[i] = userCert
	}
	if _, err := ts.Verify(big, VerifyOptions{}); err == nil {
		t.Fatal("oversized chain accepted")
	}
}

func BenchmarkVerifyProxyChainDepth4(b *testing.B) {
	caCert, _, userCert, userKey := testPKI(b)
	ts := newStore(b, caCert)
	chain := []*Certificate{userCert}
	cert, key := userCert, userKey
	for i := 0; i < 4; i++ {
		cert, key = issueProxy(b, cert, key, ProxyImpersonation, -1)
		chain = append([]*Certificate{cert}, chain...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ts.Verify(chain, VerifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
