package gridcert

import (
	"testing"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/israce"
)

// testPKI builds a CA, a user end-entity cert, and returns all pieces.
func testPKI(t testing.TB) (caCert *Certificate, caKey *gridcrypto.KeyPair, userCert *Certificate, userKey *gridcrypto.KeyPair) {
	t.Helper()
	var err error
	caCert, caKey, err = NewSelfSignedCA(MustParseName("/O=Grid/CN=Test CA"), 24*time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatalf("NewSelfSignedCA: %v", err)
	}
	userKey, err = gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	userCert, err = Sign(Template{
		Type:     TypeEndEntity,
		Subject:  MustParseName("/O=Grid/CN=Alice"),
		KeyUsage: UsageDigitalSignature | UsageDelegation | UsageKeyAgreement,
	}, userKey.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatalf("Sign user cert: %v", err)
	}
	return
}

// issueProxy signs a proxy below the given parent credential.
func issueProxy(t testing.TB, parentCert *Certificate, parentKey *gridcrypto.KeyPair, variant ProxyVariant, pathLen int) (*Certificate, *gridcrypto.KeyPair) {
	t.Helper()
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := gridcrypto.RandomSerial()
	if err != nil {
		t.Fatal(err)
	}
	pi := &ProxyInfo{Variant: variant, PathLenConstraint: pathLen}
	if variant == ProxyRestricted {
		pi.PolicyLanguage = "grid.cas.v1"
		pi.Policy = []byte("read-only")
	}
	cert, err := Sign(Template{
		SerialNumber: serial,
		Type:         TypeProxy,
		Subject:      parentCert.Subject.WithCN(proxyCN(serial)),
		KeyUsage:     UsageDigitalSignature | UsageDelegation | UsageKeyAgreement,
		Proxy:        pi,
	}, key.Public(), parentCert.Subject, parentKey)
	if err != nil {
		t.Fatalf("Sign proxy: %v", err)
	}
	return cert, key
}

func proxyCN(serial uint64) string {
	const digits = "0123456789"
	if serial == 0 {
		return "proxy-0"
	}
	var buf [20]byte
	i := len(buf)
	for serial > 0 {
		i--
		buf[i] = digits[serial%10]
		serial /= 10
	}
	return "proxy-" + string(buf[i:])
}

func TestCertificateEncodeDecode(t *testing.T) {
	caCert, _, userCert, _ := testPKI(t)
	for _, c := range []*Certificate{caCert, userCert} {
		enc := c.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%s): %v", c, err)
		}
		if !dec.Subject.Equal(c.Subject) || !dec.Issuer.Equal(c.Issuer) ||
			dec.SerialNumber != c.SerialNumber || dec.Type != c.Type ||
			!dec.PublicKey.Equal(c.PublicKey) || dec.KeyUsage != c.KeyUsage {
			t.Fatalf("decode mismatch: %s vs %s", dec, c)
		}
		if !dec.NotBefore.Equal(c.NotBefore) || !dec.NotAfter.Equal(c.NotAfter) {
			t.Fatalf("validity mismatch")
		}
		if err := dec.CheckSignatureFrom(caCert); err != nil {
			t.Fatalf("decoded cert signature: %v", err)
		}
		// The decoded certificate owns its bytes: the caller's buffer may
		// be reused, and the memoized encodings stay those of the original.
		want := string(enc)
		input := []byte(want)
		dec, err = Decode(input)
		if err != nil {
			t.Fatal(err)
		}
		for i := range input {
			input[i] = 0
		}
		if string(dec.Encode()) != want || string(dec.encodeTBS()) != string(c.encodeTBS()) {
			t.Fatal("decoded certificate aliases the caller's buffer")
		}
		if err := dec.CheckSignatureFrom(caCert); err != nil {
			t.Fatalf("decoded cert signature after the input was reused: %v", err)
		}
	}
}

func TestDecodeRejectsTampering(t *testing.T) {
	_, _, userCert, _ := testPKI(t)
	enc := userCert.Encode()
	for _, idx := range []int{10, len(enc) / 2, len(enc) - 1} {
		mut := append([]byte(nil), enc...)
		mut[idx] ^= 0xff
		c, err := Decode(mut)
		if err != nil {
			continue // structural rejection is fine
		}
		// If it still parses, the signature must no longer verify against
		// the original TBS or the content changed.
		caCert, _, _, _ := testPKI(t)
		_ = caCert
		if string(c.encodeTBS()) == string(userCert.encodeTBS()) && string(c.Signature) == string(userCert.Signature) {
			t.Fatalf("mutation at %d produced identical certificate", idx)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 64)} {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode accepted garbage of len %d", len(b))
		}
	}
}

func TestSignValidation(t *testing.T) {
	_, caKey, _, userKey := testPKI(t)
	caName := MustParseName("/O=Grid/CN=Test CA")
	// Missing subject.
	if _, err := Sign(Template{Type: TypeEndEntity}, userKey.Public(), caName, caKey); err == nil {
		t.Error("Sign accepted empty subject")
	}
	// Proxy without proxy info.
	if _, err := Sign(Template{Type: TypeProxy, Subject: MustParseName("/CN=p")}, userKey.Public(), caName, caKey); err == nil {
		t.Error("Sign accepted proxy without ProxyInfo")
	}
	// CA/EE with proxy info.
	if _, err := Sign(Template{
		Type: TypeEndEntity, Subject: MustParseName("/CN=x"),
		Proxy: &ProxyInfo{Variant: ProxyImpersonation},
	}, userKey.Public(), caName, caKey); err == nil {
		t.Error("Sign accepted end entity with ProxyInfo")
	}
	// Restricted proxy missing policy language.
	if _, err := Sign(Template{
		Type: TypeProxy, Subject: MustParseName("/CN=x/CN=p"),
		Proxy: &ProxyInfo{Variant: ProxyRestricted},
	}, userKey.Public(), MustParseName("/CN=x"), userKey); err == nil {
		t.Error("Sign accepted restricted proxy without policy language")
	}
	// Nil issuer key.
	if _, err := Sign(Template{Type: TypeEndEntity, Subject: MustParseName("/CN=x")}, userKey.Public(), caName, nil); err == nil {
		t.Error("Sign accepted nil issuer key")
	}
}

func TestDefaultValidityWindow(t *testing.T) {
	caCert, caKey, _, _ := testPKI(t)
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	c, err := Sign(Template{Type: TypeEndEntity, Subject: MustParseName("/CN=d")},
		key.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if !c.ValidAt(now) {
		t.Fatal("default validity does not include now")
	}
	if c.ValidAt(now.Add(13 * time.Hour)) {
		t.Fatal("default validity too long")
	}
	if c.NotBefore.After(now) {
		t.Fatal("NotBefore not backdated")
	}
}

func TestCredential(t *testing.T) {
	caCert, caKey, userCert, userKey := testPKI(t)
	_ = caKey
	cred, err := NewCredential([]*Certificate{userCert, caCert}, userKey)
	if err != nil {
		t.Fatal(err)
	}
	if !cred.Identity().Equal(userCert.Subject) {
		t.Fatalf("Identity = %q", cred.Identity())
	}
	// Key mismatch.
	otherKey, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if _, err := NewCredential([]*Certificate{userCert}, otherKey); err == nil {
		t.Fatal("NewCredential accepted mismatched key")
	}
	if _, err := NewCredential(nil, userKey); err == nil {
		t.Fatal("NewCredential accepted empty chain")
	}
}

func TestCredentialProxyIdentity(t *testing.T) {
	_, _, userCert, userKey := testPKI(t)
	p1, k1 := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	p2, k2 := issueProxy(t, p1, k1, ProxyLimited, -1)
	cred, err := NewCredential([]*Certificate{p2, p1, userCert}, k2)
	if err != nil {
		t.Fatal(err)
	}
	if !cred.Identity().Equal(userCert.Subject) {
		t.Fatalf("proxy credential identity = %q, want user subject", cred.Identity())
	}
}

func TestChainEncodeDecode(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	p1, _ := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	chain := []*Certificate{p1, userCert, caCert}
	enc := EncodeChain(chain)
	dec, err := DecodeChain(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 {
		t.Fatalf("decoded %d certs", len(dec))
	}
	for i := range chain {
		if !dec[i].Subject.Equal(chain[i].Subject) {
			t.Fatalf("chain entry %d mismatch", i)
		}
	}
	if _, err := DecodeChain([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("DecodeChain accepted empty chain")
	}
	if _, err := DecodeChain([]byte("garbage")); err == nil {
		t.Fatal("DecodeChain accepted garbage")
	}
}

func TestFindExtension(t *testing.T) {
	caCert, caKey, _, _ := testPKI(t)
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	c, err := Sign(Template{
		Type:    TypeEndEntity,
		Subject: MustParseName("/CN=svc"),
		Extensions: []Extension{
			{ID: "site.origin", Critical: false, Value: []byte("alice@REALM")},
		},
	}, key.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatal(err)
	}
	ext, ok := c.FindExtension("site.origin")
	if !ok || string(ext.Value) != "alice@REALM" {
		t.Fatalf("FindExtension: ok=%v value=%q", ok, ext.Value)
	}
	if _, ok := c.FindExtension("missing"); ok {
		t.Fatal("found nonexistent extension")
	}
	// Extensions must round-trip.
	dec, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ext2, ok := dec.FindExtension("site.origin")
	if !ok || string(ext2.Value) != "alice@REALM" {
		t.Fatal("extension lost in round trip")
	}
}

func TestFingerprintStable(t *testing.T) {
	_, _, userCert, _ := testPKI(t)
	f1 := userCert.Fingerprint()
	dec, _ := Decode(userCert.Encode())
	if dec.Fingerprint() != f1 {
		t.Fatal("fingerprint changed across round trip")
	}
}

// proxyChain mints a two-proxy chain below the test user — the first
// proxy of the given variant — and returns it with its encoding.
func proxyChain(t testing.TB, variant ProxyVariant) ([]*Certificate, []byte) {
	t.Helper()
	_, _, userCert, userKey := testPKI(t)
	p1, k1 := issueProxy(t, userCert, userKey, variant, -1)
	p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
	chain := []*Certificate{p2, p1, userCert}
	return chain, EncodeChain(chain)
}

// TestDecodeChainOwnsItsBytes: a decoded chain keeps its own copy of
// every certificate, so overwriting the input afterwards changes no
// name, key, signature, policy, extension, encoding or fingerprint.
func TestDecodeChainOwnsItsBytes(t *testing.T) {
	caCert, caKey, _, _ := testPKI(t)
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	withExt, err := Sign(Template{
		Type:       TypeEndEntity,
		Subject:    MustParseName("/O=Grid/OU=svc/CN=host"),
		Extensions: []Extension{{ID: "site.origin", Critical: true, Value: []byte("alice@REALM")}},
	}, key.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatal(err)
	}
	restricted, _ := proxyChain(t, ProxyRestricted)
	want := append(restricted, withExt)
	input := EncodeChain(want)
	got, err := DecodeChain(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		input[i] = 0xa5
	}
	for i, c := range got {
		w := want[i]
		if !c.Subject.Equal(w.Subject) || !c.Issuer.Equal(w.Issuer) ||
			c.Subject.String() != w.Subject.String() || c.Issuer.String() != w.Issuer.String() {
			t.Fatalf("entry %d: names changed: %s / %s", i, c.Subject, c.Issuer)
		}
		if !c.PublicKey.Equal(w.PublicKey) || string(c.Signature) != string(w.Signature) {
			t.Fatalf("entry %d: key or signature changed", i)
		}
		if (c.Proxy == nil) != (w.Proxy == nil) ||
			c.Proxy != nil && (c.Proxy.PolicyLanguage != w.Proxy.PolicyLanguage || string(c.Proxy.Policy) != string(w.Proxy.Policy)) {
			t.Fatalf("entry %d: proxy policy changed", i)
		}
		if len(c.Extensions) != len(w.Extensions) {
			t.Fatalf("entry %d: %d extensions, want %d", i, len(c.Extensions), len(w.Extensions))
		}
		for j, e := range c.Extensions {
			we := w.Extensions[j]
			if e.ID != we.ID || e.Critical != we.Critical || string(e.Value) != string(we.Value) {
				t.Fatalf("entry %d: extension %d changed", i, j)
			}
		}
		if string(c.Encode()) != string(w.Encode()) || c.Fingerprint() != w.Fingerprint() {
			t.Fatalf("entry %d: encoding or fingerprint changed", i)
		}
	}
	if got[1].Proxy.Policy == nil || string(got[1].Proxy.Policy) != "read-only" {
		t.Fatal("restricted proxy lost its policy")
	}
	// A view handed out is capped: appending to it cannot write into the
	// certificate's encoding.
	sig := got[0].Signature
	_ = append(sig, 0xff)
	if string(got[0].Encode()) != string(want[0].Encode()) {
		t.Fatal("appending to a decoded signature rewrote the certificate")
	}
}

// TestDecodeChainAllocs: a three-certificate proxy chain decodes in a
// fixed, small number of allocations — per certificate one copy of its
// bytes, the Certificate, one string and one component slice per name,
// the memoized-encoding headers and, on a proxy, its ProxyInfo and
// policy language. A decode that copied each field would be over 100.
func TestDecodeChainAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	for _, variant := range []ProxyVariant{ProxyImpersonation, ProxyRestricted} {
		chain, enc := proxyChain(t, variant)
		allocs := testing.AllocsPerRun(200, func() {
			got, err := DecodeChain(enc)
			if err != nil || len(got) != len(chain) {
				t.Fatalf("DecodeChain: %d certificates, %v", len(got), err)
			}
		})
		if allocs > 30 {
			t.Errorf("decoding a 3-certificate %v proxy chain allocates %.0f/op, want <= 30", variant, allocs)
		}
	}
}

// FuzzDecodeChain: no input panics the decoder, and whatever decodes
// re-encodes to exactly the bytes it came from.
func FuzzDecodeChain(f *testing.F) {
	for _, variant := range []ProxyVariant{ProxyImpersonation, ProxyRestricted} {
		_, enc := proxyChain(f, variant)
		f.Add(enc)
	}
	caCert, _, _, _ := testPKI(f)
	f.Add(EncodeChain([]*Certificate{caCert}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		chain, err := DecodeChain(b)
		if err != nil {
			return
		}
		if got := EncodeChain(chain); string(got) != string(b) {
			t.Fatalf("decoded chain re-encodes to %x, want %x", got, b)
		}
		for i, c := range chain {
			if again := reencode(c); string(again) != string(c.Encode()) {
				t.Fatalf("entry %d: fields re-encode to %x, decoded from %x", i, again, c.Encode())
			}
		}
	})
}

// reencode encodes c's fields afresh, bypassing its memoized encoding.
func reencode(c *Certificate) []byte {
	fresh := &Certificate{
		Version: c.Version, SerialNumber: c.SerialNumber, Type: c.Type,
		Issuer: c.Issuer, Subject: c.Subject,
		NotBefore: c.NotBefore, NotAfter: c.NotAfter,
		PublicKey: c.PublicKey, KeyUsage: c.KeyUsage, MaxPathLen: c.MaxPathLen,
		Proxy: c.Proxy, Extensions: c.Extensions,
		SignatureAlg: c.SignatureAlg, Signature: c.Signature,
	}
	return fresh.Encode()
}
