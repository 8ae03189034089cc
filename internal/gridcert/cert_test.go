package gridcert

import (
	"testing"
	"time"

	"repro/internal/gridcrypto"
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
	if cred.Limited() {
		t.Fatal("plain credential reported limited")
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
	if !cred.Limited() {
		t.Fatal("limited proxy chain not reported limited")
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
