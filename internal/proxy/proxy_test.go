package proxy

import (
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
)

func testUser(t testing.TB) (*ca.Authority, *gridcert.Credential, *gridcert.TrustStore) {
	t.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	cred, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := gridcert.NewTrustStore()
	if err := ts.AddRoot(auth.Certificate()); err != nil {
		t.Fatal(err)
	}
	return auth, cred, ts
}

func TestNewProxyVerifies(t *testing.T) {
	_, user, ts := testUser(t)
	p, err := New(user, Options{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ts.Verify(p.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatalf("proxy chain: %v", err)
	}
	if info.ProxyDepth != 1 {
		t.Fatalf("ProxyDepth = %d", info.ProxyDepth)
	}
	if !info.Identity.Equal(user.Leaf().Subject) {
		t.Fatalf("Identity = %q", info.Identity)
	}
	if p.Leaf().Proxy.Variant != gridcert.ProxyImpersonation {
		t.Fatalf("default variant = %v", p.Leaf().Proxy.Variant)
	}
}

func TestProxyLifetimeClippedToSigner(t *testing.T) {
	_, user, _ := testUser(t)
	p, err := New(user, Options{Lifetime: 1000 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if p.Leaf().NotAfter.After(user.Leaf().NotAfter) {
		t.Fatal("proxy outlives signer")
	}
}

func TestProxyChainDeep(t *testing.T) {
	_, user, ts := testUser(t)
	cur := user
	for i := 0; i < 8; i++ {
		next, err := New(cur, Options{})
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
		cur = next
	}
	info, err := ts.Verify(cur.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.ProxyDepth != 8 {
		t.Fatalf("ProxyDepth = %d", info.ProxyDepth)
	}
}

func TestNoFurtherDelegation(t *testing.T) {
	_, user, _ := testUser(t)
	p, err := New(user, Options{NoFurtherDelegation: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Options{}); err == nil {
		t.Fatal("delegation below pathlen-0 proxy succeeded at issue time")
	}
}

func TestLimitedAndRestrictedProxies(t *testing.T) {
	_, user, ts := testUser(t)
	lim, err := New(user, Options{Variant: gridcert.ProxyLimited})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ts.Verify(lim.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Limited {
		t.Fatal("limited proxy not flagged")
	}

	res, err := New(user, Options{
		Variant:        gridcert.ProxyRestricted,
		PolicyLanguage: "grid.cas.v1",
		Policy:         []byte(`{"rights":["read"]}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err = ts.Verify(res.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Restricted) != 1 {
		t.Fatalf("Restricted = %+v", info.Restricted)
	}
	// Restricted without language is rejected.
	if _, err := New(user, Options{Variant: gridcert.ProxyRestricted}); err == nil {
		t.Fatal("restricted proxy without policy language accepted")
	}
}

func TestCACannotSignProxy(t *testing.T) {
	auth, _, _ := testUser(t)
	// Build a "credential" from the CA cert to ensure Issue refuses it.
	caKey, _ := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	_ = caKey
	// We cannot access the CA private key (by design); construct a fake CA
	// credential with a fresh self-signed CA instead.
	cert, key, err := gridcert.NewSelfSignedCA(gridcert.MustParseName("/CN=Rogue CA"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := gridcert.NewCredential([]*gridcert.Certificate{cert}, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cred, Options{}); err == nil {
		t.Fatal("CA credential allowed to sign proxy")
	}
	_ = auth
}

func TestDelegationExchange(t *testing.T) {
	_, user, ts := testUser(t)

	// Delegatee (e.g. an MJS) generates its key and request.
	delegatee, req, err := NewDelegatee(time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the request over the wire.
	reqDec, err := DecodeDelegationRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reqDec.PublicKey.Equal(req.PublicKey) || reqDec.Lifetime != time.Hour {
		t.Fatal("request round trip mismatch")
	}

	// Delegator issues.
	reply, err := HandleDelegation(user, reqDec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replyDec, err := DecodeDelegationReply(reply.Encode())
	if err != nil {
		t.Fatal(err)
	}

	// Delegatee assembles and the chain verifies.
	cred, err := delegatee.Accept(replyDec)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ts.Verify(cred.Chain, gridcert.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Identity.Equal(user.Leaf().Subject) {
		t.Fatalf("delegated identity = %q", info.Identity)
	}
}

func TestDelegationRequestedLifetimeShortens(t *testing.T) {
	_, user, _ := testUser(t)
	_, req, _ := NewDelegatee(30*time.Minute, false)
	reply, err := HandleDelegation(user, req, Options{Lifetime: 5 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	life := reply.ProxyCert.NotAfter.Sub(reply.ProxyCert.NotBefore)
	if life > 35*time.Minute {
		t.Fatalf("delegated lifetime %v exceeds requested 30m", life)
	}
}

func TestDelegationLimitedRequest(t *testing.T) {
	_, user, _ := testUser(t)
	_, req, _ := NewDelegatee(0, true)
	reply, err := HandleDelegation(user, req, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reply.ProxyCert.Proxy.Variant != gridcert.ProxyLimited {
		t.Fatalf("variant = %v, want limited", reply.ProxyCert.Proxy.Variant)
	}
}

func TestDelegateeRejectsWrongKey(t *testing.T) {
	_, user, _ := testUser(t)
	d1, _, _ := NewDelegatee(0, false)
	_, req2, _ := NewDelegatee(0, false)
	reply, err := HandleDelegation(user, req2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Accept(reply); err == nil {
		t.Fatal("delegatee accepted certificate for another key")
	}
}

func TestDecodeDelegationGarbage(t *testing.T) {
	if _, err := DecodeDelegationRequest([]byte("junk")); err == nil {
		t.Fatal("accepted junk request")
	}
	if _, err := DecodeDelegationReply([]byte("junk")); err == nil {
		t.Fatal("accepted junk reply")
	}
}

func BenchmarkProxyCreation(b *testing.B) {
	_, user, _ := testUser(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(user, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelegationExchange(b *testing.B) {
	_, user, _ := testUser(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, req, err := NewDelegatee(time.Hour, false)
		if err != nil {
			b.Fatal(err)
		}
		reply, err := HandleDelegation(user, req, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Accept(reply); err != nil {
			b.Fatal(err)
		}
	}
}
