package cas

import (
	"context"
	"crypto/ed25519"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
)

// TestAssertionMemoDifferential is the oracle for the assertion's half of
// the signature memo: over a seeded sequence of presentations — honest,
// tampered, stolen, signed by the VO's old key or its new one, judged
// early, on time and late, with the VO trusted, re-keyed or dropped, and
// from half way on under a CRL that revokes a member — a resource whose
// trust store has seen every one of them answers exactly as a resource
// whose store has seen nothing: permit or refusal, reason, error. (With
// the public key left out of the memo key it does not: the store has
// seen the re-keyed VO's assertion verify under the new key, and then
// accepts it for a resource that trusts the old one.)
func TestAssertionMemoDifferential(t *testing.T) {
	const (
		seed       = 23
		iterations = 800
	)
	rng := rand.New(rand.NewSource(seed))
	bed := newVOBed(t)
	t0 := time.Now()
	// rekeyed is the VO re-keyed under its old name: another CAS server,
	// with the same roll.
	rekeyedCred, err := bed.auth.NewEntity(bed.server.VO(), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	servers := []*Server{bed.server, NewServer(rekeyedCred)}
	members := []*gridcert.Credential{bed.alice, bed.bob}
	// Assertions are good from t0+10m to t0+40m; the chains from before t0
	// for twelve hours, so every instant below reaches the assertion.
	instants := []time.Time{t0.Add(20 * time.Minute), t0.Add(5 * time.Second), t0.Add(50 * time.Minute)}
	issued := make([][]*Assertion, len(servers)) // by server, by member
	for i, s := range servers {
		s.now = func() time.Time { return t0.Add(10 * time.Minute) }
		s.AssertionLifetime = 30 * time.Minute
		s.AddPolicy(authz.Rule{ID: "vo-read", Effect: authz.EffectPermit, Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"}})
		for _, m := range members {
			s.AddMember(m.Identity(), "researchers")
			a, err := s.IssueAssertionContext(context.Background(), m.Identity())
			if err != nil {
				t.Fatal(err)
			}
			issued[i] = append(issued[i], a)
		}
	}

	var crl *gridcert.CRL
	freshStore := func() *gridcert.TrustStore {
		ts := gridcert.NewTrustStore()
		if err := ts.AddRoot(bed.auth.Certificate()); err != nil {
			t.Fatal(err)
		}
		if crl != nil {
			if err := ts.AddCRL(crl); err != nil {
				t.Fatal(err)
			}
		}
		return ts
	}
	warm := freshStore()
	// authorize is one resource's answer: the chain validated against
	// store, then the assertion it carries checked with the VO
	// certificate given, if any, as the only trusted community. The VO's
	// rule and the resource's own permit every honest read, so a usable
	// assertion is a permit.
	type outcome struct {
		permit bool
		reason string
	}
	authorize := func(store *gridcert.TrustStore, vo *gridcert.Certificate, chain []*gridcert.Certificate, now time.Time) (outcome, error) {
		info, err := store.Verify(chain, gridcert.VerifyOptions{Now: now})
		if err != nil {
			return outcome{reason: "authentication failed"}, err
		}
		a, reason, err := CheckAssertion(info, trustOnly(vo), now)
		if a == nil && reason == "" {
			reason = "no assertion"
		}
		return outcome{permit: a != nil, reason: reason}, err
	}

	classes := []error{gridcrypto.ErrBadSignature, gridcert.ErrRevoked, gridcert.ErrExpired}
	permits, reasons := 0, map[string]int{}
	for i := 0; i < iterations; i++ {
		if i == iterations/2 {
			// Alice is revoked on a store whose memo holds her links and
			// her assertions' signatures.
			if err := bed.auth.Revoke(bed.alice.Leaf().SerialNumber); err != nil {
				t.Fatal(err)
			}
			if crl, err = bed.auth.CRL(); err != nil {
				t.Fatal(err)
			}
			if err := warm.AddCRL(crl); err != nil {
				t.Fatal(err)
			}
		}
		signer, owner, holder := rng.Intn(2), rng.Intn(2), rng.Intn(2)
		if rng.Intn(4) > 0 {
			holder = owner // one in eight is stolen
		}
		blob := append([]byte(nil), issued[signer][owner].Encode()...)
		what := "untouched"
		switch rng.Intn(6) {
		case 0:
			what = "signature byte flipped"
			blob[len(blob)-1-rng.Intn(ed25519.SignatureSize)] ^= 1 << rng.Intn(8)
		case 1:
			what = "body byte flipped"
			blob[rng.Intn(len(blob)-ed25519.SignatureSize)] ^= 1 << rng.Intn(8)
		}
		cred, err := proxyNewForTest(members[holder], blob)
		if err != nil {
			t.Fatal(err)
		}
		var vo *gridcert.Certificate // one in six: the VO is not trusted at all
		if k := rng.Intn(6); k < 5 {
			vo = servers[k%2].Certificate()
		}
		now := instants[0]
		if k := rng.Intn(6); k < len(instants) {
			now = instants[k]
		}

		got, gotErr := authorize(warm, vo, cred.Chain, now)
		want, wantErr := authorize(freshStore(), vo, cred.Chain, now)
		if got != want {
			t.Fatalf("iteration %d (%s): warm store says %+v, fresh store says %+v", i, what, got, want)
		}
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("iteration %d (%s): warm store says %v, fresh store says %v", i, what, gotErr, wantErr)
		}
		for _, c := range classes {
			if errors.Is(gotErr, c) != errors.Is(wantErr, c) {
				t.Fatalf("iteration %d (%s): warm store says %v, fresh store says %v", i, what, gotErr, wantErr)
			}
		}
		// The oracle's own oracle: nothing but an honest member's own
		// assertion, under the key the resource trusts, on time, permits.
		honest := what == "untouched" && holder == owner && vo == servers[signer].Certificate() && now.Equal(instants[0]) &&
			!(crl != nil && holder == 0)
		if want.permit != honest {
			t.Fatalf("iteration %d (%s, signer %d, owner %d, holder %d, at %s): fresh store says %+v (%v)", i, what, signer, owner, holder, now.Sub(t0), want, wantErr)
		}
		if honest {
			permits++
		} else {
			reason := want.reason
			for _, c := range classes {
				if errors.Is(wantErr, c) {
					reason = c.Error()
				}
			}
			reasons[reason]++
		}
	}
	t.Logf("permitted %d, refused %v", permits, reasons)
	// The run is only an oracle if it went everywhere.
	if permits < iterations/20 {
		t.Errorf("only %d of %d presentations were permitted", permits, iterations)
	}
	for _, reason := range []string{
		gridcrypto.ErrBadSignature.Error(), gridcert.ErrRevoked.Error(),
		"CAS assertion present but invalid", "assertion verification failed",
		"assertion subject does not match authenticated identity",
		`assertion from untrusted VO "` + bed.server.VO().String() + `"`,
	} {
		if reasons[reason] < 10 {
			t.Errorf("only %d refusals for %q", reasons[reason], reason)
		}
	}
	// Four honest assertions and a few hundred tampered ones; every proxy
	// is new, every user link and every honest assertion is not.
	if st := warm.SignatureStats(); st.MemoHits < iterations {
		t.Errorf("the warm store's memo answered %d times over %d presentations: %+v", st.MemoHits, iterations, st)
	}
}
