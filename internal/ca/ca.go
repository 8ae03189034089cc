// Package ca implements a certificate authority for the grid PKI: the
// trusted third party that issues identity certificates to users and
// hosts (paper §3). A CA here is deliberately simple — issuance policy,
// a registry of issued certificates, and revocation — because the paper's
// point is that *trust in a CA is established unilaterally*, so the CA
// itself needs no inter-organization machinery.
package ca

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
)

// Policy constrains what a CA will issue.
type Policy struct {
	// MaxLifetime caps the validity window of issued certificates.
	MaxLifetime time.Duration
	// NamespacePrefix, if non-empty, requires every issued subject to have
	// this name as a prefix (e.g. "/O=Grid" for the Grid CA). This mirrors
	// real CA namespace constraints.
	NamespacePrefix gridcert.Name
	// AllowHostCerts permits issuing certificates whose CN contains a
	// hostname (service identity).
	AllowHostCerts bool
}

// DefaultPolicy issues 1-year certificates with no namespace constraint.
func DefaultPolicy() Policy {
	return Policy{MaxLifetime: 365 * 24 * time.Hour, AllowHostCerts: true}
}

// Authority is a certificate authority.
type Authority struct {
	mu     sync.Mutex
	cert   *gridcert.Certificate
	key    *gridcrypto.KeyPair
	policy Policy

	issued   map[uint64]*gridcert.Certificate // serial -> cert
	revoked  map[uint64]bool
	crlSeq   uint64
	nextStat Stats
}

// Stats summarises CA activity (cmd/gridca prints it).
type Stats struct {
	Issued  int
	Revoked int
	CRLs    int
}

// New creates a CA with a fresh self-signed root.
func New(subject gridcert.Name, lifetime time.Duration, policy Policy) (*Authority, error) {
	cert, key, err := gridcert.NewSelfSignedCA(subject, lifetime, gridcrypto.AlgEd25519)
	if err != nil {
		return nil, fmt.Errorf("ca: creating root: %w", err)
	}
	return &Authority{
		cert:    cert,
		key:     key,
		policy:  policy,
		issued:  make(map[uint64]*gridcert.Certificate),
		revoked: make(map[uint64]bool),
	}, nil
}

// Certificate returns the CA's own (root) certificate.
func (a *Authority) Certificate() *gridcert.Certificate { return a.cert }

// Name returns the CA subject name.
func (a *Authority) Name() gridcert.Name { return a.cert.Subject }

// Request describes a certificate signing request: the applicant's public
// key and desired subject.
type Request struct {
	Subject   gridcert.Name
	PublicKey gridcrypto.PublicKey
	Lifetime  time.Duration
	// Host marks a request for a host/service certificate.
	Host bool
	// Extensions are copied into the issued certificate.
	Extensions []gridcert.Extension
}

// Issue signs an end-entity certificate for the request, enforcing policy.
// This is the only "administrative act" required to admit a new entity to
// the grid PKI.
func (a *Authority) Issue(req Request) (*gridcert.Certificate, error) {
	if req.Subject.Empty() {
		return nil, errors.New("ca: request missing subject")
	}
	if req.Host && !a.policy.AllowHostCerts {
		return nil, fmt.Errorf("ca: policy forbids host certificates")
	}
	if !a.policy.NamespacePrefix.Empty() && !hasPrefix(req.Subject, a.policy.NamespacePrefix) {
		return nil, fmt.Errorf("ca: subject %q outside CA namespace %q", req.Subject, a.policy.NamespacePrefix)
	}
	life := req.Lifetime
	if life <= 0 || life > a.policy.MaxLifetime {
		life = a.policy.MaxLifetime
	}
	usage := gridcert.UsageDigitalSignature | gridcert.UsageKeyAgreement | gridcert.UsageDelegation
	now := time.Now()
	cert, err := gridcert.Sign(gridcert.Template{
		Type:       gridcert.TypeEndEntity,
		Subject:    req.Subject,
		NotBefore:  now.Add(-5 * time.Minute),
		NotAfter:   now.Add(life),
		KeyUsage:   usage,
		Extensions: req.Extensions,
	}, req.PublicKey, a.cert.Subject, a.key)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.issued[cert.SerialNumber] = cert
	a.nextStat.Issued++
	a.mu.Unlock()
	return cert, nil
}

// Revoke marks a serial number revoked. The revocation takes effect for
// relying parties when they install the next CRL.
func (a *Authority) Revoke(serial uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.issued[serial]; !ok {
		return fmt.Errorf("ca: serial %d was not issued by this CA", serial)
	}
	if !a.revoked[serial] {
		a.revoked[serial] = true
		a.nextStat.Revoked++
	}
	return nil
}

// CRL produces a freshly signed revocation list.
func (a *Authority) CRL() (*gridcert.CRL, error) {
	a.mu.Lock()
	serials := make([]uint64, 0, len(a.revoked))
	for s := range a.revoked {
		serials = append(serials, s)
	}
	a.crlSeq++
	seq := a.crlSeq
	a.nextStat.CRLs++
	a.mu.Unlock()
	return gridcert.NewCRL(a.cert.Subject, seq, serials, a.key)
}

// Lookup returns an issued certificate by serial.
func (a *Authority) Lookup(serial uint64) (*gridcert.Certificate, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.issued[serial]
	return c, ok
}

// Stats returns a snapshot of CA activity counters.
func (a *Authority) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextStat
}

// NewEntity is a convenience that generates a key pair and has the CA
// issue a certificate for it, returning a ready credential.
func (a *Authority) NewEntity(subject gridcert.Name, lifetime time.Duration) (*gridcert.Credential, error) {
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		return nil, err
	}
	cert, err := a.Issue(Request{Subject: subject, PublicKey: key.Public(), Lifetime: lifetime})
	if err != nil {
		return nil, err
	}
	return gridcert.NewCredential([]*gridcert.Certificate{cert}, key)
}

// NewHostEntity issues a host (service) credential.
func (a *Authority) NewHostEntity(subject gridcert.Name, lifetime time.Duration) (*gridcert.Credential, error) {
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		return nil, err
	}
	cert, err := a.Issue(Request{Subject: subject, PublicKey: key.Public(), Lifetime: lifetime, Host: true})
	if err != nil {
		return nil, err
	}
	return gridcert.NewCredential([]*gridcert.Certificate{cert}, key)
}

func hasPrefix(n, prefix gridcert.Name) bool {
	if len(prefix.Components) > len(n.Components) {
		return false
	}
	for i, c := range prefix.Components {
		if n.Components[i] != c {
			return false
		}
	}
	return true
}
