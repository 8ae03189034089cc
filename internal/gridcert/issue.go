package gridcert

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcrypto"
)

// Template describes a certificate to be issued. Zero-value fields are
// filled with sensible defaults by Sign.
type Template struct {
	SerialNumber uint64
	Type         CertType
	Subject      Name
	NotBefore    time.Time
	NotAfter     time.Time
	KeyUsage     KeyUsage
	MaxPathLen   int
	Proxy        *ProxyInfo
	Extensions   []Extension
}

// Sign issues a certificate for subjectKey from the template, signed by
// issuerKey under issuerName. For self-signed roots pass the subject's own
// key and name as issuer.
func Sign(tpl Template, subjectKey gridcrypto.PublicKey, issuerName Name, issuerKey *gridcrypto.KeyPair) (*Certificate, error) {
	if tpl.Subject.Empty() {
		return nil, errors.New("gridcert: template missing subject")
	}
	if issuerName.Empty() {
		return nil, errors.New("gridcert: missing issuer name")
	}
	if issuerKey == nil {
		return nil, errors.New("gridcert: missing issuer key")
	}
	serial := tpl.SerialNumber
	if serial == 0 {
		var err error
		serial, err = gridcrypto.RandomSerial()
		if err != nil {
			return nil, err
		}
	}
	nb, na := tpl.NotBefore, tpl.NotAfter
	if nb.IsZero() {
		nb = time.Now().Add(-5 * time.Minute) // small backdate for clock skew
	}
	if na.IsZero() {
		na = nb.Add(12 * time.Hour)
	}
	c := &Certificate{
		Version:      certVersion,
		SerialNumber: serial,
		Type:         tpl.Type,
		Issuer:       issuerName,
		Subject:      tpl.Subject,
		NotBefore:    nb.Truncate(time.Second).UTC(),
		NotAfter:     na.Truncate(time.Second).UTC(),
		PublicKey:    subjectKey,
		KeyUsage:     tpl.KeyUsage,
		MaxPathLen:   tpl.MaxPathLen,
		Proxy:        cloneProxyInfo(tpl.Proxy),
		Extensions:   append([]Extension(nil), tpl.Extensions...),
	}
	if err := c.checkStructure(); err != nil {
		return nil, err
	}
	sig, err := issuerKey.Sign(c.encodeTBS())
	if err != nil {
		return nil, fmt.Errorf("gridcert: signing certificate: %w", err)
	}
	c.SignatureAlg = issuerKey.Algorithm()
	c.Signature = sig
	return c, nil
}

func cloneProxyInfo(p *ProxyInfo) *ProxyInfo {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Policy = append([]byte(nil), p.Policy...)
	return &cp
}

// NewSelfSignedCA creates a root CA certificate and key pair in one step.
func NewSelfSignedCA(subject Name, lifetime time.Duration, alg gridcrypto.Algorithm) (*Certificate, *gridcrypto.KeyPair, error) {
	key, err := gridcrypto.GenerateKeyPair(alg)
	if err != nil {
		return nil, nil, err
	}
	now := time.Now()
	cert, err := Sign(Template{
		Type:       TypeCA,
		Subject:    subject,
		NotBefore:  now.Add(-5 * time.Minute),
		NotAfter:   now.Add(lifetime),
		KeyUsage:   UsageCertSign | UsageCRLSign,
		MaxPathLen: -1,
	}, key.Public(), subject, key)
	if err != nil {
		return nil, nil, err
	}
	return cert, key, nil
}

// Credential bundles a certificate chain with the private key of the leaf.
// Chain[0] is the leaf; subsequent entries lead toward (but normally do
// not include) a trust root. This is the "credential set" the paper's §3
// describes: a certificate plus its associated private key.
type Credential struct {
	Chain []*Certificate
	Key   *gridcrypto.KeyPair
}

// NewCredential validates the basic shape of a credential.
func NewCredential(chain []*Certificate, key *gridcrypto.KeyPair) (*Credential, error) {
	if len(chain) == 0 {
		return nil, errors.New("gridcert: credential requires at least one certificate")
	}
	if key == nil {
		return nil, errors.New("gridcert: credential requires a private key")
	}
	if !chain[0].PublicKey.Equal(key.Public()) {
		return nil, errors.New("gridcert: private key does not match leaf certificate")
	}
	return &Credential{Chain: chain, Key: key}, nil
}

// Leaf returns the first certificate of the chain.
func (c *Credential) Leaf() *Certificate { return c.Chain[0] }

// Identity returns the effective grid identity of the credential: the
// subject of the end-entity certificate underlying any proxies, which is
// how GSI maps every proxy back to its owning user.
func (c *Credential) Identity() Name {
	for _, cert := range c.Chain {
		if cert.Type != TypeProxy {
			return cert.Subject
		}
	}
	// Chain is all proxies (validation will reject this); fall back to
	// stripping the proxy CN components from the leaf.
	n := c.Chain[0].Subject
	for range c.Chain {
		if p, ok := n.Parent(); ok {
			n = p
		}
	}
	return n
}

// EncodeChain serialises the full chain, leaf first.
func EncodeChain(chain []*Certificate) []byte {
	e := &encoder{}
	e.u32(uint32(len(chain)))
	for _, c := range chain {
		e.bytes(c.Encode())
	}
	return e.buf
}

// EncodeCredential serialises a credential — chain plus private key —
// for handoff to another process (gsictl's credential files). The key
// material is in the clear: callers own file permissions (0600) and
// transport.
func EncodeCredential(c *Credential) ([]byte, error) {
	key, err := c.Key.Encode()
	if err != nil {
		return nil, err
	}
	e := &encoder{}
	e.bytes(EncodeChain(c.Chain))
	e.bytes(key)
	return e.buf, nil
}

// DecodeCredential reverses EncodeCredential, re-running the
// key-matches-leaf check so a file assembled from mismatched halves is
// rejected at load.
func DecodeCredential(b []byte) (*Credential, error) {
	d := &decoder{b: b}
	rawChain := d.bytes()
	rawKey := d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	chain, err := DecodeChain(rawChain)
	if err != nil {
		return nil, err
	}
	key, err := gridcrypto.DecodeKeyPair(rawKey)
	if err != nil {
		return nil, err
	}
	return NewCredential(chain, key)
}

const maxChainLen = 64

// DecodeChain reverses EncodeChain.
func DecodeChain(b []byte) ([]*Certificate, error) {
	d := &decoder{b: b}
	cnt := d.count("chain", d.u32(), maxChainLen)
	chain := make([]*Certificate, 0, cnt)
	for i := 0; i < cnt; i++ {
		raw := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		c, err := Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("gridcert: chain entry %d: %w", i, err)
		}
		chain = append(chain, c)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return nil, errors.New("gridcert: empty chain")
	}
	return chain, nil
}
