package gridcert

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gridcrypto"
)

// Sentinel errors exposed so relying parties can branch on the class of
// validation failure with errors.Is. Verify wraps them with chain-specific
// detail.
var (
	// ErrUntrustedIssuer marks chains that do not terminate at a trusted
	// root.
	ErrUntrustedIssuer = errors.New("gridcert: untrusted issuer")
	// ErrExpired marks certificates (or roots) outside their validity
	// window.
	ErrExpired = errors.New("gridcert: certificate expired or not yet valid")
	// ErrRevoked marks certificates listed on an installed CRL.
	ErrRevoked = errors.New("gridcert: certificate revoked")
	// ErrLimitedProxy marks limited-proxy chains rejected by
	// VerifyOptions.RejectLimited.
	ErrLimitedProxy = errors.New("gridcert: limited proxy not acceptable for this operation")
)

// TrustStore is the set of trusted CA root certificates. Trust in a CA is
// established unilaterally — any entity can add a root without involving
// its organization — which is the property the paper identifies as key to
// lightweight VO formation (§3).
type TrustStore struct {
	mu sync.RWMutex
	// anchors is replaced, never written in place: Verify takes the slice
	// under the read lock and walks a chain against that one state.
	anchors anchorSet

	// gen counts trust-state mutations (root or CRL changes); the
	// authorization pipeline's decision cache keys on it, so withdrawing
	// a root or installing a CRL strands every cached decision at once.
	gen uint64

	sigs sigMemo
}

// anchor is one trusted root and the latest CRL that root's key signed.
// The list lives and dies with the key that vouched for it: re-keying a
// CA under its old name starts again from no list, so the new key's CRL
// number 1 is never "stale" against a number its predecessor reached.
type anchor struct {
	root *Certificate
	crl  *CRL
}

// anchorSet is searched by name component, not by rendered DN: a store
// holds a handful of roots, and a lookup must not allocate.
type anchorSet []anchor

func (as anchorSet) find(subject Name) *anchor {
	for i := range as {
		if as[i].root.Subject.Equal(subject) {
			return &as[i]
		}
	}
	return nil
}

// without returns a copy of as lacking the anchor named subject, with
// room for one more.
func (as anchorSet) without(subject Name) anchorSet {
	next := make(anchorSet, 0, len(as)+1)
	for _, a := range as {
		if !a.root.Subject.Equal(subject) {
			next = append(next, a)
		}
	}
	return next
}

// with returns a copy of as in which a stands in for the anchor of the
// same name, or is added.
func (as anchorSet) with(a anchor) anchorSet {
	return append(as.without(a.root.Subject), a)
}

// revoked reports whether serial was revoked by the CA with the given name.
func (as anchorSet) revoked(issuer Name, serial uint64) bool {
	a := as.find(issuer)
	return a != nil && a.crl != nil && a.crl.Contains(serial)
}

// sigMemoCap bounds one generation of a store's signature memo: three
// times the largest population the benchmark decides for (10,000
// subjects). Two full generations are ≈ 5 MB (DESIGN.md).
const sigMemoCap = 1 << 15

// sigMemo remembers which (public key, message, signature) triples have
// verified. That is a pure function of the three — no CRL, clock or root
// change alters it — so an entry is never invalidated, and everything
// else Verify and cas.CheckAssertion decide they decide again on every
// call. Only successes are kept, in two generations: a full current one
// becomes the previous one, whose predecessor is dropped, and a hit in
// the previous one moves into the current one, so what is in use
// outlives any number of rotations.
type sigMemo struct {
	mu                      sync.Mutex
	bound                   int // of one generation: sigMemoCap (tests set it small)
	cur, prev               map[[sha256.Size]byte]struct{}
	checks, hits, rotations uint64 // verified on the curve; recognised instead; generations retired
}

// add records key in the current generation, retiring a full one first.
func (m *sigMemo) add(key [sha256.Size]byte) {
	if len(m.cur) >= m.bound {
		m.prev, m.cur = m.cur, nil
		m.rotations++
	}
	if m.cur == nil {
		m.cur = make(map[[sha256.Size]byte]struct{})
	}
	m.cur[key] = struct{}{}
}

// verifySignature is pub.Verify(msg, sig), skipped when this store has
// seen the same signature over the same bytes verify under the same key.
// The memo key is one hash over exactly what PublicKey.Verify is handed,
// each part but the last behind its length so none runs into the next.
func (ts *TrustStore) verifySignature(pub gridcrypto.PublicKey, msg, sig []byte) error {
	var stack [1024]byte // a link or an assertion of a few rules fits; a longer one allocates
	b := append(stack[:0], byte(pub.Alg))
	b = binary.BigEndian.AppendUint32(b, uint32(len(pub.Raw)))
	b = append(b, pub.Raw...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(msg)))
	b = append(append(b, msg...), sig...)
	m, key := &ts.sigs, sha256.Sum256(b)
	m.mu.Lock()
	_, ok := m.cur[key]
	if !ok {
		if _, ok = m.prev[key]; ok {
			m.add(key)
		}
	}
	if ok {
		m.hits++
	} else {
		m.checks++
	}
	m.mu.Unlock()
	if ok {
		return nil
	}
	if err := pub.Verify(msg, sig); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.add(key)
	return nil
}

// SignatureStats counts a store's signature work, certificate links and
// CAS assertions alike: Checks verified on the curve, MemoHits recognised
// instead, Entries remembered, Rotations of the memo's generations —
// Checks rising with Entries at the bound is a working set the memo does
// not hold.
type SignatureStats struct {
	Checks, MemoHits uint64
	Entries          int
	Rotations        uint64
}

// SignatureStats returns a snapshot of the counters.
func (ts *TrustStore) SignatureStats() SignatureStats {
	m := &ts.sigs
	m.mu.Lock()
	defer m.mu.Unlock()
	return SignatureStats{m.checks, m.hits, len(m.cur) + len(m.prev), m.rotations}
}

// NewTrustStore creates an empty trust store.
func NewTrustStore() *TrustStore { return &TrustStore{sigs: sigMemo{bound: sigMemoCap}} }

// checkRoot applies the rules every trusted root must pass: a self-signed
// CA certificate whose self-signature verifies.
func checkRoot(root *Certificate) error {
	if root.Type != TypeCA {
		return fmt.Errorf("gridcert: trust root %q is not a CA certificate", root.Subject)
	}
	if !root.SelfSigned() {
		return fmt.Errorf("gridcert: trust root %q is not self-signed", root.Subject)
	}
	if err := root.CheckSignatureFrom(root); err != nil {
		return fmt.Errorf("gridcert: trust root self-signature invalid: %w", err)
	}
	return nil
}

// rekeyed is the anchor for root given the state it joins: it inherits
// the installed CRL only from a root of the same name and public key.
func (as anchorSet) rekeyed(root *Certificate) anchor {
	if old := as.find(root.Subject); old != nil && old.root.PublicKey.Equal(root.PublicKey) {
		return anchor{root, old.crl}
	}
	return anchor{root: root}
}

// AddRoot registers a trusted root CA certificate. The certificate must be
// a self-signed CA with a valid self-signature. A root replacing one of
// the same name under a different key does not inherit its CRL.
func (ts *TrustStore) AddRoot(root *Certificate) error {
	if err := checkRoot(root); err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.anchors = ts.anchors.with(ts.anchors.rekeyed(root))
	ts.gen++
	return nil
}

func (ts *TrustStore) snapshot() anchorSet {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.anchors
}

// Roots returns all trusted roots.
func (ts *TrustStore) Roots() []*Certificate {
	anchors := ts.snapshot()
	out := make([]*Certificate, 0, len(anchors))
	for _, a := range anchors {
		out = append(out, a.root)
	}
	return out
}

// Len reports the number of trusted roots.
func (ts *TrustStore) Len() int { return len(ts.snapshot()) }

// ReplaceRoots swaps the entire trusted-root set in one transaction:
// every candidate is validated first (same rules as AddRoot), and only
// if all pass is the set swapped and the generation bumped — once per
// reload rather than per root. An empty roots slice is rejected: a
// reload must never drop a live store to "trust nobody", which would
// fail every verification and is indistinguishable from a truncated
// trust file. A CRL survives only under a root of the same name and
// public key as the one it was installed under: one whose issuer
// vanished, or came back re-keyed, is gone.
func (ts *TrustStore) ReplaceRoots(roots []*Certificate) error {
	if len(roots) == 0 {
		return errors.New("gridcert: refusing to replace trust roots with an empty set")
	}
	for _, root := range roots {
		if err := checkRoot(root); err != nil {
			return err
		}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var next anchorSet
	for _, root := range roots {
		next = next.with(ts.anchors.rekeyed(root))
	}
	ts.anchors = next
	ts.gen++
	return nil
}

// ErrCRLStale marks an AddCRL whose candidate is not newer than the
// installed list. Reload paths treat it as "already current" rather
// than a failure: re-reading an unchanged CRL file is routine.
var ErrCRLStale = errors.New("gridcert: CRL not newer than installed")

// AddCRL installs a certificate revocation list that CheckCRL accepts.
func (ts *TrustStore) AddCRL(crl *CRL) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if err := ts.anchors.checkCRL(crl); err != nil {
		return err
	}
	ts.anchors = ts.anchors.with(anchor{ts.anchors.find(crl.Issuer).root, crl})
	ts.gen++
	return nil
}

// CheckCRL validates a CRL against the installed trust state without
// applying it: the issuer must be a trusted root and the signature must
// verify; a candidate not newer than the installed list returns
// ErrCRLStale. Reload paths vet a whole CRL set with this before
// installing any of it, so one bad CRL rejects the file outright
// instead of half-applying.
func (ts *TrustStore) CheckCRL(crl *CRL) error { return ts.snapshot().checkCRL(crl) }

func (as anchorSet) checkCRL(crl *CRL) error {
	a := as.find(crl.Issuer)
	if a == nil {
		return fmt.Errorf("gridcert: CRL issuer %q is not a trusted root", crl.Issuer)
	}
	if err := crl.CheckSignatureFrom(a.root); err != nil {
		return err
	}
	if a.crl != nil && a.crl.Number >= crl.Number {
		return fmt.Errorf("%w: number %d, installed %d", ErrCRLStale, crl.Number, a.crl.Number)
	}
	return nil
}

// Generation reports the trust-state revision: it increments whenever a
// root or CRL is added or removed.
func (ts *TrustStore) Generation() uint64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.gen
}

// VerifyOptions tunes chain validation.
type VerifyOptions struct {
	// Now is the validation time; zero means time.Now().
	Now time.Time
	// RejectLimited fails validation if any proxy in the chain is limited.
	// GRAM job initiation sets this, per the GSI limited-proxy rule.
	RejectLimited bool
	// MaxProxyDepth caps the number of proxy certificates; 0 means no cap
	// beyond embedded path-length constraints.
	MaxProxyDepth int
}

// ChainInfo is the result of a successful validation.
type ChainInfo struct {
	// Identity is the end-entity subject: the grid identity every proxy in
	// the chain acts for.
	Identity Name
	// Subject is the leaf subject (the proxy's own unique identity).
	Subject Name
	// EndEntity is the end-entity certificate.
	EndEntity *Certificate
	// Leaf is the first chain certificate (the proxy actually presented,
	// or the end entity itself when no proxy is in play). Its fingerprint
	// keys per-credential caches: it covers the public key, the validity
	// window, and any embedded restricted-proxy policy.
	Leaf *Certificate
	// Root is the trust anchor that validated the chain.
	Root *Certificate
	// ProxyDepth counts proxy certificates in the chain.
	ProxyDepth int
	// Limited reports whether any proxy was a limited proxy.
	Limited bool
	// Restricted collects the policy documents of restricted proxies,
	// outermost first; effective rights are the intersection.
	Restricted []ProxyInfo

	// store is the trust store that validated the chain.
	store *TrustStore
}

// VerifySignature is pub.Verify(msg, sig) for a signature the validated
// chain carries below its certificates (a CAS assertion's), checked
// through the signature memo of the store that validated the chain. A
// ChainInfo no store returned (nil, or built by hand) checks on the curve.
func (info *ChainInfo) VerifySignature(pub gridcrypto.PublicKey, msg, sig []byte) error {
	if info == nil || info.store == nil {
		return pub.Verify(msg, sig)
	}
	return info.store.verifySignature(pub, msg, sig)
}

// Verify validates a certificate chain (leaf first, root optional at the
// end) against the trust store, applying the proxy-certificate profile:
//
//   - signatures chain correctly from a trusted, unrevoked root;
//   - every certificate is within its validity window;
//   - CA certificates appear only above the end entity and honour
//     MaxPathLen;
//   - below the end entity only proxies appear, each subject being its
//     issuer's subject plus one CN component, each signed by the
//     certificate above, honouring proxy path-length constraints;
//   - proxy certificates never sign CAs or end entities.
func (ts *TrustStore) Verify(chain []*Certificate, opts VerifyOptions) (*ChainInfo, error) {
	if len(chain) == 0 {
		return nil, errors.New("gridcert: empty chain")
	}
	if len(chain) > maxChainLen {
		return nil, fmt.Errorf("gridcert: chain length %d exceeds cap %d", len(chain), maxChainLen)
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}

	// Locate the trust anchor: the issuer of the last chain certificate
	// (whose signature the walk below checks against it, like every other
	// link), or the last certificate itself if it is a trusted root.
	anchors := ts.snapshot()
	top := chain[len(chain)-1]
	var root *Certificate
	if a := anchors.find(top.Subject); a != nil && a.root.PublicKey.Equal(top.PublicKey) {
		root = a.root
	} else if a := anchors.find(top.Issuer); a != nil {
		root = a.root
	} else {
		return nil, fmt.Errorf("%w: no trusted root for chain ending at %q (issuer %q)", ErrUntrustedIssuer, top.Subject, top.Issuer)
	}
	if !root.ValidAt(now) {
		return nil, fmt.Errorf("%w: trust root %q", ErrExpired, root.Subject)
	}

	info := &ChainInfo{Root: root, store: ts}

	// Walk from the top of the chain down to the leaf.
	// Phase 1: CA certificates (possibly none, if chain starts below root).
	// Phase 2: exactly one end entity.
	// Phase 3: zero or more proxies.
	const (
		phaseCA = iota
		phaseProxy
	)
	phase := phaseCA
	caDepth := 0
	proxyBudget := -1 // remaining proxies allowed; -1 = unlimited

	for i := len(chain) - 1; i >= 0; i-- {
		cert := chain[i]
		parent := root
		if i < len(chain)-1 {
			parent = chain[i+1]
		}
		if !cert.ValidAt(now) {
			return nil, fmt.Errorf("%w: certificate %q outside validity window at %s", ErrExpired, cert.Subject, now.UTC().Format(time.RFC3339))
		}
		// Signature check. The top cert may BE the root (already trusted).
		if !(i == len(chain)-1 && cert == root) {
			if err := ts.verifySignature(parent.PublicKey, cert.encodeTBS(), cert.Signature); err != nil {
				return nil, cert.notSignedBy(parent, err)
			}
		}
		// Revocation applies to CA-issued certificates.
		if parent.Type == TypeCA && anchors.revoked(parent.Subject, cert.SerialNumber) {
			return nil, fmt.Errorf("%w: certificate %q (serial %d)", ErrRevoked, cert.Subject, cert.SerialNumber)
		}
		// Issuer name must match parent subject.
		if !cert.Issuer.Equal(parent.Subject) {
			return nil, fmt.Errorf("gridcert: certificate %q issuer %q does not match signer subject %q",
				cert.Subject, cert.Issuer, parent.Subject)
		}

		switch cert.Type {
		case TypeCA:
			if phase != phaseCA {
				return nil, fmt.Errorf("gridcert: CA certificate %q below end entity", cert.Subject)
			}
			if parent.Type != TypeCA {
				return nil, fmt.Errorf("gridcert: CA %q signed by non-CA %q", cert.Subject, parent.Subject)
			}
			if parent != cert { // not the self-signed root itself
				if parent.MaxPathLen >= 0 && caDepth > parent.MaxPathLen {
					return nil, fmt.Errorf("gridcert: CA path length exceeded at %q", cert.Subject)
				}
				caDepth++
			}
			if cert.KeyUsage&UsageCertSign == 0 {
				return nil, fmt.Errorf("gridcert: CA %q lacks cert-sign usage", cert.Subject)
			}
		case TypeEndEntity:
			if phase != phaseCA {
				return nil, fmt.Errorf("gridcert: second end entity %q in chain", cert.Subject)
			}
			if parent.Type != TypeCA {
				return nil, fmt.Errorf("gridcert: end entity %q signed by non-CA %q", cert.Subject, parent.Subject)
			}
			phase = phaseProxy
			info.EndEntity = cert
			info.Identity = cert.Subject
		case TypeProxy:
			if phase != phaseProxy {
				return nil, fmt.Errorf("gridcert: proxy %q not below an end entity", cert.Subject)
			}
			if parent.Type == TypeCA {
				return nil, fmt.Errorf("gridcert: proxy %q signed directly by CA", cert.Subject)
			}
			// RFC 3820 subject-name rule.
			if !cert.Subject.IsImmediateChildOf(parent.Subject) {
				return nil, fmt.Errorf("gridcert: proxy subject %q is not issuer %q plus one CN",
					cert.Subject, parent.Subject)
			}
			// Path-length budget from certificates above.
			if proxyBudget == 0 {
				return nil, fmt.Errorf("gridcert: proxy path-length constraint violated at %q", cert.Subject)
			}
			if proxyBudget > 0 {
				proxyBudget--
			}
			// This proxy's own constraint tightens the budget for those below.
			if cert.Proxy.PathLenConstraint >= 0 {
				if proxyBudget < 0 || cert.Proxy.PathLenConstraint < proxyBudget {
					proxyBudget = cert.Proxy.PathLenConstraint
				}
			}
			info.ProxyDepth++
			if cert.Proxy.Variant == ProxyLimited {
				info.Limited = true
			}
			if cert.Proxy.Variant == ProxyRestricted {
				info.Restricted = append(info.Restricted, *cert.Proxy)
			}
		default:
			return nil, fmt.Errorf("gridcert: unknown certificate type %d", cert.Type)
		}
	}

	if info.EndEntity == nil {
		return nil, errors.New("gridcert: chain contains no end-entity certificate")
	}
	if opts.MaxProxyDepth > 0 && info.ProxyDepth > opts.MaxProxyDepth {
		return nil, fmt.Errorf("gridcert: proxy depth %d exceeds limit %d", info.ProxyDepth, opts.MaxProxyDepth)
	}
	if opts.RejectLimited && info.Limited {
		return nil, ErrLimitedProxy
	}
	info.Subject = chain[0].Subject
	info.Leaf = chain[0]
	return info, nil
}
