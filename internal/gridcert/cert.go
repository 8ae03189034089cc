// Package gridcert implements the certificate format of the Grid Security
// Infrastructure reproduction: identity certificates, certificate-authority
// certificates, and X.509-proxy-certificate-profile (RFC 3820 style) proxy
// certificates, together with chain building and validation.
//
// Go's crypto/x509 cannot issue or validate proxy-certificate chains, so
// this package re-implements the certificate layer from scratch on a
// deterministic binary encoding (see wire.go) and the signature primitives
// of internal/gridcrypto.
package gridcert

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/gridcrypto"
)

// CertType classifies a certificate.
type CertType uint8

const (
	// TypeCA marks a certificate-authority certificate (self-signed root
	// or intermediate).
	TypeCA CertType = 1
	// TypeEndEntity marks a user or host identity certificate issued by a CA.
	TypeEndEntity CertType = 2
	// TypeProxy marks a proxy certificate issued by an end entity or by
	// another proxy.
	TypeProxy CertType = 3
)

// String returns the certificate type name.
func (t CertType) String() string {
	switch t {
	case TypeCA:
		return "ca"
	case TypeEndEntity:
		return "end-entity"
	case TypeProxy:
		return "proxy"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// KeyUsage is a bitmask of permitted key operations.
type KeyUsage uint16

const (
	UsageCertSign KeyUsage = 1 << iota
	UsageCRLSign
	UsageDigitalSignature
	UsageKeyAgreement
	UsageDelegation // may sign proxy certificates
)

// ProxyVariant distinguishes the delegation semantics of a proxy
// certificate, mirroring the RFC 3820 policy languages used by GSI.
type ProxyVariant uint8

const (
	// ProxyImpersonation delegates all rights of the issuer ("full proxy").
	ProxyImpersonation ProxyVariant = 1
	// ProxyLimited delegates all rights except starting new jobs; GRAM
	// rejects job requests authenticated with a limited proxy.
	ProxyLimited ProxyVariant = 2
	// ProxyRestricted delegates only the rights enumerated by an attached
	// policy document, evaluated by the authorization engine.
	ProxyRestricted ProxyVariant = 3
	// ProxyIndependent delegates no rights; the new identity accrues its
	// own rights via explicit policy.
	ProxyIndependent ProxyVariant = 4
)

// String names the proxy variant.
func (v ProxyVariant) String() string {
	switch v {
	case ProxyImpersonation:
		return "impersonation"
	case ProxyLimited:
		return "limited"
	case ProxyRestricted:
		return "restricted"
	case ProxyIndependent:
		return "independent"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(v))
	}
}

// Valid reports whether v is a defined variant.
func (v ProxyVariant) Valid() bool {
	return v >= ProxyImpersonation && v <= ProxyIndependent
}

// ProxyInfo is the proxy-certificate-information extension: it is present
// exactly on proxy certificates.
type ProxyInfo struct {
	// Variant selects the delegation semantics.
	Variant ProxyVariant
	// PathLenConstraint limits how many further proxies may be derived
	// below this one. -1 means unlimited.
	PathLenConstraint int
	// PolicyLanguage and Policy carry the restriction document for
	// ProxyRestricted proxies (opaque to this package; interpreted by
	// internal/authz and internal/cas).
	PolicyLanguage string
	Policy         []byte
}

// Extension is an opaque certificate extension.
type Extension struct {
	ID       string
	Critical bool
	Value    []byte
}

// Certificate is a parsed grid certificate. The zero value is not valid;
// certificates are created via Sign (see issue.go) or Decode.
type Certificate struct {
	Version      uint8
	SerialNumber uint64
	Type         CertType

	Issuer  Name
	Subject Name

	NotBefore time.Time
	NotAfter  time.Time

	PublicKey gridcrypto.PublicKey
	KeyUsage  KeyUsage

	// MaxPathLen constrains CA chain depth below a TypeCA certificate;
	// -1 means unlimited. Ignored for other types.
	MaxPathLen int

	// Proxy is non-nil exactly when Type == TypeProxy.
	Proxy *ProxyInfo

	Extensions []Extension

	// SignatureAlg and Signature cover the TBS (to-be-signed) encoding.
	SignatureAlg gridcrypto.Algorithm
	Signature    []byte

	// raw caches the full encoding; rawTBS caches the signed portion.
	// Atomic pointers: certificates are shared across goroutines (a host
	// credential serves many concurrent handshakes), and a duplicate
	// compute-and-store is benign — the encoding is deterministic.
	raw    atomic.Pointer[[]byte]
	rawTBS atomic.Pointer[[]byte]
	fp     atomic.Pointer[[32]byte]
}

const certVersion = 1

const maxExtensions = 64

// Extension IDs used across the repository.
const (
	// ExtGRIMIdentity marks a GRIM-issued credential and carries the
	// encoded GRIM policy (user grid identity, local account, host).
	ExtGRIMIdentity = "grid.grim.identity"
)

// FindExtension returns the first extension with the given ID.
func (c *Certificate) FindExtension(id string) (Extension, bool) {
	for _, e := range c.Extensions {
		if e.ID == id {
			return e, true
		}
	}
	return Extension{}, false
}

// IsCA reports whether the certificate may sign other certificates as an
// authority.
func (c *Certificate) IsCA() bool { return c.Type == TypeCA }

// IsProxy reports whether the certificate is a proxy certificate.
func (c *Certificate) IsProxy() bool { return c.Type == TypeProxy }

// ValidAt reports whether t falls within the certificate validity window.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.NotBefore) && !t.After(c.NotAfter)
}

// encodeTBS builds the to-be-signed portion of the certificate encoding.
func (c *Certificate) encodeTBS() []byte {
	if p := c.rawTBS.Load(); p != nil {
		return *p
	}
	e := &encoder{}
	e.u8(c.Version)
	e.u64(c.SerialNumber)
	e.u8(uint8(c.Type))
	c.Issuer.encodeTo(e)
	c.Subject.encodeTo(e)
	e.i64(c.NotBefore.Unix())
	e.i64(c.NotAfter.Unix())
	e.bytes(c.PublicKey.Encode())
	e.u16(uint16(c.KeyUsage))
	e.i64(int64(c.MaxPathLen))
	if c.Proxy != nil {
		e.bool(true)
		e.u8(uint8(c.Proxy.Variant))
		e.i64(int64(c.Proxy.PathLenConstraint))
		e.str(c.Proxy.PolicyLanguage)
		e.bytes(c.Proxy.Policy)
	} else {
		e.bool(false)
	}
	e.u32(uint32(len(c.Extensions)))
	for _, ext := range c.Extensions {
		e.str(ext.ID)
		e.bool(ext.Critical)
		e.bytes(ext.Value)
	}
	buf := e.buf
	c.rawTBS.Store(&buf)
	return buf
}

// Encode returns the full wire encoding: TBS bytes, algorithm, signature.
func (c *Certificate) Encode() []byte {
	if p := c.raw.Load(); p != nil {
		return *p
	}
	tbs := c.encodeTBS()
	e := &encoder{}
	e.bytes(tbs)
	e.u8(uint8(c.SignatureAlg))
	e.bytes(c.Signature)
	buf := e.buf
	c.raw.Store(&buf)
	return buf
}

// Decode parses a certificate produced by Encode. The signature is not
// verified here; use CheckSignatureFrom or chain validation.
func Decode(b []byte) (*Certificate, error) {
	// The certificate keeps one private copy of its encoding; the
	// memoized signed portion is a view into it, not a second copy.
	raw := append([]byte(nil), b...)
	d := &decoder{b: raw}
	tbs := d.view()
	alg := gridcrypto.Algorithm(d.u8())
	sig := d.bytes()
	if err := d.done(); err != nil {
		return nil, err
	}
	c, err := decodeTBS(tbs)
	if err != nil {
		return nil, err
	}
	if !alg.Valid() {
		return nil, gridcrypto.ErrUnknownAlgorithm
	}
	c.SignatureAlg = alg
	c.Signature = sig
	c.raw.Store(&raw)
	return c, nil
}

// decodeTBS parses the signed portion of a certificate. The certificate
// keeps tbs as its memoized encoding, so tbs must not change afterwards.
func decodeTBS(tbs []byte) (*Certificate, error) {
	d := &decoder{b: tbs}
	c := &Certificate{}
	c.Version = d.u8()
	c.SerialNumber = d.u64()
	c.Type = CertType(d.u8())
	c.Issuer = decodeName(d)
	c.Subject = decodeName(d)
	c.NotBefore = time.Unix(d.i64(), 0).UTC()
	c.NotAfter = time.Unix(d.i64(), 0).UTC()
	pkBytes := d.bytes()
	c.KeyUsage = KeyUsage(d.u16())
	c.MaxPathLen = int(d.i64())
	if d.bool() {
		pi := &ProxyInfo{}
		pi.Variant = ProxyVariant(d.u8())
		pi.PathLenConstraint = int(d.i64())
		pi.PolicyLanguage = d.str()
		pi.Policy = d.bytes()
		c.Proxy = pi
	}
	extCnt := d.count("extension", d.u32(), maxExtensions)
	for i := 0; i < extCnt && d.err == nil; i++ {
		var ext Extension
		ext.ID = d.str()
		ext.Critical = d.bool()
		ext.Value = d.bytes()
		c.Extensions = append(c.Extensions, ext)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if c.Version != certVersion {
		return nil, fmt.Errorf("gridcert: unsupported certificate version %d", c.Version)
	}
	pk, err := gridcrypto.DecodePublicKey(pkBytes)
	if err != nil {
		return nil, fmt.Errorf("gridcert: bad subject public key: %w", err)
	}
	c.PublicKey = pk
	if err := c.checkStructure(); err != nil {
		return nil, err
	}
	c.rawTBS.Store(&tbs)
	return c, nil
}

// checkStructure enforces invariants that hold for every well-formed
// certificate regardless of trust.
func (c *Certificate) checkStructure() error {
	switch c.Type {
	case TypeCA, TypeEndEntity:
		if c.Proxy != nil {
			return fmt.Errorf("gridcert: %s certificate carries proxy info", c.Type)
		}
	case TypeProxy:
		if c.Proxy == nil {
			return errors.New("gridcert: proxy certificate missing proxy info")
		}
		if !c.Proxy.Variant.Valid() {
			return fmt.Errorf("gridcert: invalid proxy variant %d", c.Proxy.Variant)
		}
		if c.Proxy.Variant == ProxyRestricted && c.Proxy.PolicyLanguage == "" {
			return errors.New("gridcert: restricted proxy missing policy language")
		}
	default:
		return fmt.Errorf("gridcert: unknown certificate type %d", c.Type)
	}
	if c.Subject.Empty() {
		return errors.New("gridcert: empty subject name")
	}
	if c.Issuer.Empty() {
		return errors.New("gridcert: empty issuer name")
	}
	if !c.NotAfter.After(c.NotBefore) {
		return errors.New("gridcert: NotAfter not after NotBefore")
	}
	return nil
}

// CheckSignatureFrom verifies that parent's key signed c.
func (c *Certificate) CheckSignatureFrom(parent *Certificate) error {
	if err := parent.PublicKey.Verify(c.encodeTBS(), c.Signature); err != nil {
		return c.notSignedBy(parent, err)
	}
	return nil
}

func (c *Certificate) notSignedBy(parent *Certificate, err error) error {
	return fmt.Errorf("gridcert: certificate %q not signed by %q: %w", c.Subject, parent.Subject, err)
}

// Fingerprint returns the SHA-256 of the full certificate encoding,
// memoized: certificates are immutable after issue/decode, and
// per-exchange consumers (the authorization decision cache, pool keys)
// call this on their hot paths.
func (c *Certificate) Fingerprint() [32]byte {
	if p := c.fp.Load(); p != nil {
		return *p
	}
	sum := sha256.Sum256(c.Encode())
	c.fp.Store(&sum)
	return sum
}

// SelfSigned reports whether issuer and subject match (root CA shape).
func (c *Certificate) SelfSigned() bool { return c.Issuer.Equal(c.Subject) }

// String renders a one-line summary for logs and the certinfo tool.
func (c *Certificate) String() string {
	extra := ""
	if c.Proxy != nil {
		extra = " proxy=" + c.Proxy.Variant.String()
	}
	return fmt.Sprintf("[%s subject=%s issuer=%s serial=%d%s]",
		c.Type, c.Subject, c.Issuer, c.SerialNumber, extra)
}
