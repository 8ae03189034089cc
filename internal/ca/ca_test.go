package ca

import (
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
)

func newTestCA(t testing.TB, policy Policy) *Authority {
	t.Helper()
	a, err := New(gridcert.MustParseName("/O=Grid/CN=Test CA"), 24*time.Hour, policy)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIssueAndVerify(t *testing.T) {
	a := newTestCA(t, DefaultPolicy())
	cred, err := a.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(a.Certificate()); err != nil {
		t.Fatal(err)
	}
	info, err := ts.Verify(cred.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatalf("issued credential does not verify: %v", err)
	}
	if info.Identity.String() != "/O=Grid/CN=Alice" {
		t.Fatalf("Identity = %q", info.Identity)
	}
	if got := a.Stats().Issued; got != 1 {
		t.Fatalf("Stats.Issued = %d", got)
	}
}

func TestIssuePolicyEnforcement(t *testing.T) {
	pol := Policy{
		MaxLifetime:     time.Hour,
		NamespacePrefix: gridcert.MustParseName("/O=Grid"),
		AllowHostCerts:  false,
	}
	a := newTestCA(t, pol)
	key, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)

	// Outside namespace.
	if _, err := a.Issue(Request{Subject: gridcert.MustParseName("/O=Evil/CN=X"), PublicKey: key.Public()}); err == nil {
		t.Error("issued outside namespace")
	}
	// Host cert forbidden.
	if _, err := a.Issue(Request{Subject: gridcert.MustParseName("/O=Grid/CN=host node1"), PublicKey: key.Public(), Host: true}); err == nil {
		t.Error("issued forbidden host cert")
	}
	// Empty subject.
	if _, err := a.Issue(Request{PublicKey: key.Public()}); err == nil {
		t.Error("issued empty subject")
	}
	// Lifetime clamp: requesting 100h must clamp to 1h.
	c, err := a.Issue(Request{Subject: gridcert.MustParseName("/O=Grid/CN=Y"), PublicKey: key.Public(), Lifetime: 100 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if c.NotAfter.Sub(c.NotBefore) > time.Hour+10*time.Minute {
		t.Errorf("lifetime not clamped: %v", c.NotAfter.Sub(c.NotBefore))
	}
}

func TestRevocationFlow(t *testing.T) {
	a := newTestCA(t, DefaultPolicy())
	cred, err := a.NewEntity(gridcert.MustParseName("/O=Grid/CN=Mallory"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(a.Certificate()); err != nil {
		t.Fatal(err)
	}
	if err := a.Revoke(cred.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	// Revoking twice is idempotent.
	if err := a.Revoke(cred.Leaf().SerialNumber); err != nil {
		t.Fatal(err)
	}
	// Unknown serial rejected.
	if err := a.Revoke(999999999); err == nil {
		t.Error("revoked unknown serial")
	}
	crl, err := a.CRL()
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify(cred.Chain, gridcert.VerifyOptions{}); err == nil {
		t.Fatal("revoked credential still verifies")
	}
	st := a.Stats()
	if st.Revoked != 1 || st.CRLs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLookup(t *testing.T) {
	a := newTestCA(t, DefaultPolicy())
	cred, _ := a.NewEntity(gridcert.MustParseName("/O=Grid/CN=D"), time.Hour)
	got, ok := a.Lookup(cred.Leaf().SerialNumber)
	if !ok || !got.Subject.Equal(cred.Leaf().Subject) {
		t.Fatal("Lookup failed for issued cert")
	}
	if _, ok := a.Lookup(12345); ok {
		t.Fatal("Lookup returned unknown serial")
	}
}

func TestConcurrentIssue(t *testing.T) {
	a := newTestCA(t, DefaultPolicy())
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			_, err := a.NewEntity(gridcert.MustParseName("/O=Grid/CN=user"+string(rune('a'+i))), time.Hour)
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().Issued; got != 16 {
		t.Fatalf("Issued = %d, want 16", got)
	}
}
