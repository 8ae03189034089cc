package gridcert

import (
	"errors"
	"testing"
	"time"

	"repro/internal/gridcrypto"
)

func TestReplaceRoots(t *testing.T) {
	caA, keyA, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=CA A"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	caB, _, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=CA B"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}

	ts := NewTrustStore()
	if err := ts.AddRoot(caA); err != nil {
		t.Fatal(err)
	}
	crl, err := NewCRL(caA.Subject, 1, []uint64{42}, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	gen := ts.Generation()

	// Swap A out for B: one generation bump, A's CRL pruned.
	if err := ts.ReplaceRoots([]*Certificate{caB}); err != nil {
		t.Fatalf("ReplaceRoots: %v", err)
	}
	if got := ts.Generation(); got != gen+1 {
		t.Fatalf("generation moved %d times, want 1", got-gen)
	}
	if _, ok := ts.Root(caA.Subject); ok {
		t.Fatal("old root survived replacement")
	}
	if _, ok := ts.Root(caB.Subject); !ok {
		t.Fatal("new root missing after replacement")
	}
	if ts.snapshot().revoked(caA.Subject, 42) {
		t.Fatal("pruned issuer's CRL still consulted")
	}

	// An empty set must be refused with state intact: a truncated trust
	// file must never yield a trust-nobody store.
	if err := ts.ReplaceRoots(nil); err == nil {
		t.Fatal("ReplaceRoots(nil) succeeded")
	}
	if ts.Len() != 1 {
		t.Fatalf("failed replacement mutated store: %d roots", ts.Len())
	}

	// One bad candidate rejects the whole batch.
	notCA, _, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=NotCA"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	notCA.Type = TypeEndEntity
	if err := ts.ReplaceRoots([]*Certificate{caA, notCA}); err == nil {
		t.Fatal("ReplaceRoots with non-CA candidate succeeded")
	}
	if _, ok := ts.Root(caA.Subject); ok {
		t.Fatal("failed batch partially applied")
	}
}

func TestAddCRLStaleSentinel(t *testing.T) {
	ca, key, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=CA"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore()
	if err := ts.AddRoot(ca); err != nil {
		t.Fatal(err)
	}
	crl2, err := NewCRL(ca.Subject, 2, []uint64{7}, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl2); err != nil {
		t.Fatal(err)
	}
	crl1, err := NewCRL(ca.Subject, 1, nil, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl1); !errors.Is(err, ErrCRLStale) {
		t.Fatalf("stale CRL error = %v, want ErrCRLStale", err)
	}
	if err := ts.AddCRL(crl2); !errors.Is(err, ErrCRLStale) {
		t.Fatalf("same-number CRL error = %v, want ErrCRLStale", err)
	}
}

func TestCRLSetRoundTrip(t *testing.T) {
	caA, keyA, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=A"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	caB, keyB, err := NewSelfSignedCA(MustParseName("/O=Grid/CN=B"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	crlA, err := NewCRL(caA.Subject, 3, []uint64{1, 2}, keyA)
	if err != nil {
		t.Fatal(err)
	}
	crlB, err := NewCRL(caB.Subject, 1, nil, keyB)
	if err != nil {
		t.Fatal(err)
	}
	set, err := DecodeCRLSet(EncodeCRLSet([]*CRL{crlA, crlB}))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || !set[0].Issuer.Equal(crlA.Issuer) || set[0].Number != 3 || !set[1].Issuer.Equal(crlB.Issuer) {
		t.Fatalf("round trip mangled set: %+v", set)
	}
	if empty, err := DecodeCRLSet(EncodeCRLSet(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty set round trip: %v, %v", empty, err)
	}
	if _, err := DecodeCRLSet([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded as CRL set")
	}
}
