package gridcert

import (
	"errors"
	"testing"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/israce"
)

// TestRekeyedRootStartsWithoutCRL: a CRL belongs to the key that signed
// it. A CA re-keyed under its old name — by any of the three ways a root
// set changes — starts from no list, so the new key's CRL number 1
// installs (it is not "stale" against the number the old key reached) and
// the certificate it revokes is refused.
func TestRekeyedRootStartsWithoutCRL(t *testing.T) {
	for _, route := range []struct {
		name  string
		rekey func(ts *TrustStore, old, next *Certificate) error
	}{
		// The root is removed by a ReplaceRoots that leaves it out.
		{"RemoveRoot then AddRoot", func(ts *TrustStore, old, next *Certificate) error {
			other, _, err := NewSelfSignedCA(MustParseName("/CN=Other"), time.Hour, gridcrypto.AlgEd25519)
			if err == nil {
				err = ts.ReplaceRoots([]*Certificate{other})
			}
			if err != nil {
				return err
			}
			return ts.AddRoot(next)
		}},
		{"AddRoot over the old name", func(ts *TrustStore, old, next *Certificate) error {
			return ts.AddRoot(next)
		}},
		{"ReplaceRoots", func(ts *TrustStore, old, next *Certificate) error {
			return ts.ReplaceRoots([]*Certificate{next})
		}},
	} {
		t.Run(route.name, func(t *testing.T) {
			oldCA, oldKey, _, _ := testPKI(t)
			ts := newStore(t, oldCA)
			oldCRL, err := NewCRL(oldCA.Subject, 7, []uint64{1}, oldKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.AddCRL(oldCRL); err != nil {
				t.Fatal(err)
			}

			newCA, newKey, err := NewSelfSignedCA(oldCA.Subject, time.Hour, gridcrypto.AlgEd25519)
			if err != nil {
				t.Fatal(err)
			}
			if err := route.rekey(ts, oldCA, newCA); err != nil {
				t.Fatal(err)
			}
			user, _ := issueEntity(t, "/O=Grid/CN=Mallory", newCA, newKey)
			if _, err := ts.Verify([]*Certificate{user}, VerifyOptions{}); err != nil {
				t.Fatalf("before revocation: %v", err)
			}
			crl, err := NewCRL(newCA.Subject, 1, []uint64{user.SerialNumber}, newKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := ts.AddCRL(crl); err != nil {
				t.Fatalf("new CA's first CRL: %v", err)
			}
			if _, err := ts.Verify([]*Certificate{user}, VerifyOptions{}); !errors.Is(err, ErrRevoked) {
				t.Fatalf("Verify = %v, want ErrRevoked", err)
			}
		})
	}

	// The same root installed again is not a re-key: its list stays.
	ca, key, user, _ := testPKI(t)
	ts := newStore(t, ca)
	crl, err := NewCRL(ca.Subject, 1, []uint64{user.SerialNumber}, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	for _, again := range []func() error{
		func() error { return ts.AddRoot(ca) },
		func() error { return ts.ReplaceRoots([]*Certificate{redecode(t, ca, -1)}) },
	} {
		if err := again(); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.Verify([]*Certificate{user}, VerifyOptions{}); !errors.Is(err, ErrRevoked) {
			t.Fatalf("after reinstalling the same root: Verify = %v, want ErrRevoked", err)
		}
	}
}

// TestVerifyWarmAllocs: a chain whose links are all in the memo costs
// its ChainInfo, plus the Restricted list when a proxy carries a policy,
// and nothing else — no DN is rendered to find the root or its CRL.
func TestVerifyWarmAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	ca, caKey, user, userKey := testPKI(t)
	ts := newStore(t, ca)
	crl, err := NewCRL(ca.Subject, 1, []uint64{user.SerialNumber + 1}, caKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		variant ProxyVariant
		max     float64
	}{{ProxyImpersonation, 1}, {ProxyRestricted, 2}} {
		p1, k1 := issueProxy(t, user, userKey, row.variant, -1)
		p2, _ := issueProxy(t, p1, k1, ProxyImpersonation, -1)
		chain := []*Certificate{p2, p1, user}
		verify := func() {
			if _, err := ts.Verify(chain, VerifyOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		verify()
		if allocs := testing.AllocsPerRun(200, verify); allocs > row.max {
			t.Errorf("warm Verify under a %v proxy allocates %.2f/op, want <= %v", row.variant, allocs, row.max)
		}
	}
}
