package gridcert

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/israce"
)

// issueEntity signs an end-entity certificate for a fresh key.
func issueEntity(t testing.TB, subject string, caCert *Certificate, caKey *gridcrypto.KeyPair) (*Certificate, *gridcrypto.KeyPair) {
	t.Helper()
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Sign(Template{
		Type:     TypeEndEntity,
		Subject:  MustParseName(subject),
		KeyUsage: UsageDigitalSignature | UsageDelegation | UsageKeyAgreement,
	}, key.Public(), caCert.Subject, caKey)
	if err != nil {
		t.Fatal(err)
	}
	return cert, key
}

// redecode is a private copy of c, by way of its encoding with one byte
// flipped (flip < 0: none).
func redecode(t testing.TB, c *Certificate, flip int) *Certificate {
	t.Helper()
	enc := append([]byte(nil), c.Encode()...)
	if flip >= 0 {
		enc[flip] ^= 1
	}
	out, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVerifyMemoStillEnforces: remembering that a signature verified
// remembers nothing else. Every row runs after the untampered chain — the
// user under a limited proxy under a second proxy — has verified on the
// same store, so each of its links is in the memo, and every row is
// refused all the same.
func TestVerifyMemoStillEnforces(t *testing.T) {
	type bed struct {
		ts            *TrustStore
		caCert        *Certificate
		caKey         *gridcrypto.KeyPair
		user, p1, p2  *Certificate
		userKey       *gridcrypto.KeyPair
		chain         []*Certificate
		opts          VerifyOptions
		sameNameOther *Certificate // the user's name certified over another key
	}
	anyRefusal := errors.New("any refusal")
	for _, row := range []struct {
		name   string
		tamper func(t *testing.T, b *bed)
		want   error
	}{
		{"CRL revoking the end entity", func(t *testing.T, b *bed) {
			crl, err := NewCRL(b.caCert.Subject, 1, []uint64{b.user.SerialNumber}, b.caKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ts.AddCRL(crl); err != nil {
				t.Fatal(err)
			}
		}, ErrRevoked},
		{"RemoveRoot", func(t *testing.T, b *bed) {
			b.ts.RemoveRoot(b.caCert.Subject)
		}, ErrUntrustedIssuer},
		{"ReplaceRoots with a same-named root under a new key", func(t *testing.T, b *bed) {
			impostor, _, err := NewSelfSignedCA(b.caCert.Subject, time.Hour, gridcrypto.AlgEd25519)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ts.ReplaceRoots([]*Certificate{impostor}); err != nil {
				t.Fatal(err)
			}
		}, gridcrypto.ErrBadSignature},
		{"now past the proxy's NotAfter", func(t *testing.T, b *bed) {
			b.opts.Now = b.p2.NotAfter.Add(time.Second)
		}, ErrExpired},
		{"now before the proxy's NotBefore", func(t *testing.T, b *bed) {
			b.opts.Now = b.p2.NotBefore.Add(-time.Second)
		}, ErrExpired},
		{"RejectLimited", func(t *testing.T, b *bed) {
			b.opts.RejectLimited = true
		}, ErrLimitedProxy},
		{"MaxProxyDepth", func(t *testing.T, b *bed) {
			b.opts.MaxProxyDepth = 1
		}, anyRefusal},
		{"Signature byte flipped in place", func(t *testing.T, b *bed) {
			b.p1.Signature[len(b.p1.Signature)-1] ^= 1
		}, gridcrypto.ErrBadSignature},
		{"TBS byte flipped, certificate decoded again", func(t *testing.T, b *bed) {
			// Byte 12 of the encoding is the low byte of the serial number.
			b.chain[1] = redecode(t, b.p1, 12)
			if b.chain[1].SerialNumber == b.p1.SerialNumber {
				t.Fatal("flip missed the serial number")
			}
		}, gridcrypto.ErrBadSignature},
		{"right certificate under the wrong parent", func(t *testing.T, b *bed) {
			// Same issuer name, same TBS bytes, same signature: only the
			// key the memo entry was made under tells the two apart.
			b.chain[2] = b.sameNameOther
		}, gridcrypto.ErrBadSignature},
	} {
		t.Run(row.name, func(t *testing.T) {
			b := &bed{}
			b.caCert, b.caKey, b.user, b.userKey = testPKI(t)
			b.ts = newStore(t, b.caCert)
			p1, k1 := issueProxy(t, b.user, b.userKey, ProxyLimited, -1)
			b.p1 = redecode(t, p1, -1) // owns its Signature bytes
			b.p2, _ = issueProxy(t, b.p1, k1, ProxyImpersonation, -1)
			b.sameNameOther, _ = issueEntity(t, b.user.Subject.String(), b.caCert, b.caKey)
			b.chain = []*Certificate{b.p2, b.p1, b.user}
			for _, chain := range [][]*Certificate{b.chain, {b.sameNameOther}} {
				if _, err := b.ts.Verify(chain, VerifyOptions{}); err != nil {
					t.Fatalf("untampered: %v", err)
				}
			}
			checks := b.ts.SignatureStats().Checks
			if _, err := b.ts.Verify(b.chain, b.opts); err != nil || b.ts.SignatureStats().Checks != checks {
				t.Fatalf("untampered, again: %v, %d further signature checks", err, b.ts.SignatureStats().Checks-checks)
			}
			row.tamper(t, b)
			_, err := b.ts.Verify(b.chain, b.opts)
			if err == nil || (row.want != anyRefusal && !errors.Is(err, row.want)) {
				t.Fatalf("Verify = %v, want %v", err, row.want)
			}
		})
	}
}

// errClasses are the refusals a relying party can tell apart.
var errClasses = []error{ErrUntrustedIssuer, ErrExpired, ErrRevoked, ErrLimitedProxy, gridcrypto.ErrBadSignature}

// TestVerifyMemoDifferential is the oracle for the memo: over a few
// thousand random manglings of valid chains, a store that has seen every
// chain and every mangling before it answers exactly as a store that has
// seen nothing. (With the issuer's key left out of the memo key it does not:
// the same-name-other-key substitution below verifies on the warm store.)
func TestVerifyMemoDifferential(t *testing.T) {
	const (
		seed       = 19
		iterations = 2500
	)
	rng := rand.New(rand.NewSource(seed))
	caCert, caKey, _, _ := testPKI(t)
	foreignCA, foreignKey, err := NewSelfSignedCA(MustParseName("/O=Elsewhere/CN=CA"), 24*time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	// rogueCA carries the trusted CA's name over its own key.
	rogueCA, rogueKey, err := NewSelfSignedCA(caCert.Subject, 24*time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}

	// The valid material: for each issuer, users (under the trusted CA two
	// per name, over different keys) with every shape of proxy chain below
	// them.
	var chains [][]*Certificate
	var revocable []uint64
	for _, issuer := range []struct {
		cert         *Certificate
		key          *gridcrypto.KeyPair
		users, twins int
	}{{caCert, caKey, 4, 2}, {foreignCA, foreignKey, 1, 1}, {rogueCA, rogueKey, 2, 1}} {
		for u := 0; u < issuer.users; u++ {
			for twin := 0; twin < issuer.twins; twin++ {
				user, userKey := issueEntity(t, fmt.Sprintf("/O=Grid/CN=User %d", u), issuer.cert, issuer.key)
				if issuer.cert == caCert {
					revocable = append(revocable, user.SerialNumber)
				}
				chains = append(chains, []*Certificate{user})
				for _, shape := range [][]ProxyVariant{
					{ProxyImpersonation},
					{ProxyLimited},
					{ProxyRestricted, ProxyImpersonation},
					{ProxyImpersonation, ProxyLimited, ProxyImpersonation},
				} {
					chain, cert, key := []*Certificate{user}, user, userKey
					for _, v := range shape {
						cert, key = issueProxy(t, cert, key, v, -1)
						chain = append([]*Certificate{cert}, chain...)
					}
					chains = append(chains, chain)
				}
			}
		}
	}

	var crl *CRL
	freshStore := func() *TrustStore {
		ts := newStore(t, caCert)
		if crl != nil {
			if err := ts.AddCRL(crl); err != nil {
				t.Fatal(err)
			}
		}
		return ts
	}
	warm := freshStore()
	now := time.Now()
	for _, c := range chains {
		warm.Verify(c, VerifyOptions{Now: now})
	}

	accepted, refused := 0, map[error]int{}
	for i := 0; i < iterations; i++ {
		if i == iterations/2 && crl == nil {
			// Half the run is under a CRL, installed on a store whose memo
			// holds the revoked users' links.
			crl, err = NewCRL(caCert.Subject, 1, revocable[:2], caKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.AddCRL(crl); err != nil {
				t.Fatal(err)
			}
		}
		chain := append([]*Certificate(nil), chains[rng.Intn(len(chains))]...)
		other := chains[rng.Intn(len(chains))]
		var what string
		switch rng.Intn(12) {
		default:
			what = "untouched"
		case 1, 2:
			what = "byte flipped"
			enc := append([]byte(nil), EncodeChain(chain)...)
			enc[rng.Intn(len(enc))] ^= 1 << rng.Intn(8)
			if chain, err = DecodeChain(enc); err != nil {
				i-- // not a chain any more: nothing to verify
				continue
			}
		case 3:
			what = "signature flipped in place"
			k := rng.Intn(len(chain))
			chain[k] = redecode(t, chain[k], -1)
			chain[k].Signature[rng.Intn(len(chain[k].Signature))] ^= 1 << rng.Intn(8)
		case 4:
			what = "two swapped"
			a, b := rng.Intn(len(chain)), rng.Intn(len(chain))
			chain[a], chain[b] = chain[b], chain[a]
		case 5:
			what = "one dropped"
			if k := rng.Intn(len(chain)); len(chain) > 1 {
				chain = append(chain[:k], chain[k+1:]...)
			}
		case 6:
			what = "one duplicated"
			k := rng.Intn(len(chain))
			chain = append(chain[:k+1], chain[k:]...)
		case 7:
			// A certificate of another chain at the same height from the
			// top: another user, the same name over another key, the same
			// name under the foreign or the rogue CA.
			what = "one substituted"
			if k := rng.Intn(len(chain)); len(chain)-k <= len(other) {
				chain[k] = other[len(other)-(len(chain)-k)]
			}
		case 8:
			what = "spliced onto another chain"
			chain = append(chain[:1+rng.Intn(len(chain))], other[rng.Intn(len(other)):]...)
		}
		if rng.Intn(4) == 0 {
			chain = append(chain, []*Certificate{caCert, foreignCA, rogueCA}[rng.Intn(3)])
		}
		if len(chain) > maxChainLen {
			chain = chain[:maxChainLen]
		}
		opts := VerifyOptions{Now: now, RejectLimited: rng.Intn(4) == 0, MaxProxyDepth: rng.Intn(3)}
		switch rng.Intn(8) {
		case 0:
			opts.Now = now.Add(13 * time.Hour) // past every user and proxy
		case 1:
			opts.Now = now.Add(-time.Hour)
		}

		got, gotErr := warm.Verify(chain, opts)
		want, wantErr := freshStore().Verify(chain, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("iteration %d (%s): warm store says %v, fresh store says %v", i, what, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("iteration %d (%s): warm store says %q, fresh store says %q", i, what, gotErr, wantErr)
			}
			class := error(nil)
			for _, c := range errClasses {
				if errors.Is(gotErr, c) != errors.Is(wantErr, c) {
					t.Fatalf("iteration %d (%s): warm store says %v, fresh store says %v", i, what, gotErr, wantErr)
				}
				if errors.Is(wantErr, c) {
					class = c
				}
			}
			refused[class]++
			continue
		}
		accepted++
		if !got.Identity.Equal(want.Identity) || !got.Subject.Equal(want.Subject) || got.ProxyDepth != want.ProxyDepth ||
			got.Limited != want.Limited || len(got.Restricted) != len(want.Restricted) || got.Root != want.Root {
			t.Fatalf("iteration %d (%s): warm store says %+v, fresh store says %+v", i, what, got, want)
		}
	}
	t.Logf("accepted %d, refused %v", accepted, refused)
	// The run is only an oracle if it went everywhere.
	if accepted < iterations/20 {
		t.Errorf("only %d of %d manglings verified", accepted, iterations)
	}
	for _, c := range append(errClasses, nil) {
		if refused[c] < 10 {
			t.Errorf("only %d refusals of class %v", refused[c], c)
		}
	}
	if st := warm.SignatureStats(); st.MemoHits < iterations/2 {
		t.Errorf("the warm store's memo answered %d times over %d manglings", st.MemoHits, iterations)
	}
}

// TestVerifyMemoBounded: ten generations' worth of distinct proxies of one
// user never leave more than two generations of links behind; the link
// they all share — the user's own certificate under the CA — is in use
// throughout and so is checked exactly once, however many rotations pass;
// and a link nobody has touched for two generations is gone.
func TestVerifyMemoBounded(t *testing.T) {
	caCert, _, userCert, userKey := testPKI(t)
	ts := newStore(t, caCert)
	const bound = 64
	ts.sigs.bound = bound
	const proxies = 10 * bound
	var first *Certificate
	for i := 1; i <= proxies; i++ {
		p, _ := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
		if first == nil {
			first = p
		}
		if _, err := ts.Verify([]*Certificate{p, userCert}, VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
		if st := ts.SignatureStats(); st.Entries > 2*bound {
			t.Fatalf("after %d proxies the memo holds %d links, over two generations of %d", i, st.Entries, bound)
		}
	}
	st := ts.SignatureStats()
	if own := st.Checks - proxies; own != 1 {
		t.Errorf("the user's own link was checked %d times over %d rotations, want once", own, st.Rotations)
	}
	if st.Checks+st.MemoHits != 2*proxies {
		t.Errorf("%d checks and %d memo hits do not add up to %d links", st.Checks, st.MemoHits, 2*proxies)
	}
	// Every proxy adds a link, and the user's is carried over once a generation.
	if st.Rotations < proxies/bound || st.Rotations > proxies/bound+1 {
		t.Errorf("%d rotations for %d links in generations of %d", st.Rotations, proxies+1, bound)
	}
	if st.Entries <= bound {
		t.Errorf("the memo holds %d links: it forgets faster than two generations", st.Entries)
	}
	if _, err := ts.Verify([]*Certificate{first, userCert}, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if again := ts.SignatureStats(); again.Checks != st.Checks+1 || again.MemoHits != st.MemoHits+1 {
		t.Errorf("the first proxy, %d rotations later: %d checks and %d memo hits, want its own link checked and the user's recognised",
			st.Rotations, again.Checks-st.Checks, again.MemoHits-st.MemoHits)
	}
}

// TestMemoKeepsWorkingSet: a store deciding for 10,000 identities — more
// than the 8,192 links the memo held when its bound was a guess, fewer
// than one generation holds now — checks each once: a second pass over
// all of them does no curve work.
func TestMemoKeepsWorkingSet(t *testing.T) {
	if israce.Enabled {
		t.Skip("single-threaded, and 20,000 signatures' worth of instrumented curve arithmetic")
	}
	caCert, caKey, _, _ := testPKI(t)
	ts := newStore(t, caCert)
	const identities = 10000
	users := make([]*Certificate, identities)
	for i := range users {
		users[i], _ = issueEntity(t, fmt.Sprintf("/O=Grid/CN=User %d", i), caCert, caKey)
	}
	for pass, want := range []uint64{identities, 0} {
		before := ts.SignatureStats().Checks
		for _, u := range users {
			if _, err := ts.Verify([]*Certificate{u}, VerifyOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if got := ts.SignatureStats().Checks - before; got != want {
			t.Errorf("pass %d over %d identities: %d signature checks, want %d", pass+1, identities, got, want)
		}
	}
	if st := ts.SignatureStats(); st.Rotations != 0 || st.Entries != identities {
		t.Errorf("%+v, want %d entries in one generation", st, identities)
	}
}

// TestVerifyMemoConcurrentRevocation: with verifiers in flight, a root
// reload lands and then a CRL; a Verify that started after AddCRL returned
// never accepts the revoked chain, however warm the memo.
func TestVerifyMemoConcurrentRevocation(t *testing.T) {
	caCert, caKey, userCert, userKey := testPKI(t)
	otherCA, _, err := NewSelfSignedCA(MustParseName("/O=Other/CN=CA"), time.Hour, gridcrypto.AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	ts := newStore(t, caCert)
	p1, _ := issueProxy(t, userCert, userKey, ProxyImpersonation, -1)
	chain := []*Certificate{p1, userCert}
	crl, err := NewCRL(caCert.Subject, 1, []uint64{userCert.SerialNumber}, caKey)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg              sync.WaitGroup
		revoked         atomic.Bool
		before, refused atomic.Int64
		warm            = make(chan struct{}) // closed once the verifiers are well under way, or one has failed
		warmOnce        sync.Once
	)
	const verifiers = 4
	for g := 0; g < verifiers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer warmOnce.Do(func() { close(warm) })
			for refused.Load() < 100 {
				was := revoked.Load()
				_, err := ts.Verify(chain, VerifyOptions{})
				switch {
				case err == nil && was:
					t.Error("revoked chain verified after AddCRL returned")
					return
				case err == nil:
					if before.Add(1) == 100 {
						warmOnce.Do(func() { close(warm) })
					}
				case errors.Is(err, ErrRevoked):
					refused.Add(1)
				default:
					t.Errorf("Verify: %v", err)
					return
				}
			}
		}()
	}
	<-warm
	if err := ts.ReplaceRoots([]*Certificate{caCert, otherCA}); err != nil {
		t.Fatal(err)
	}
	if err := ts.AddCRL(crl); err != nil {
		t.Fatal(err)
	}
	revoked.Store(true)
	wg.Wait()
	if _, err := ts.Verify(chain, VerifyOptions{}); !errors.Is(err, ErrRevoked) || !strings.Contains(err.Error(), "Alice") {
		t.Fatalf("after the CRL: %v", err)
	}
	// Verifiers that start together may each check a link before any has
	// recorded it; after that nobody does.
	if st := ts.SignatureStats(); st.Checks > 2*verifiers {
		t.Errorf("%d signature checks for one chain of two links", st.Checks)
	}
}
