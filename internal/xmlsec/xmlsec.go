// Package xmlsec implements XML-Signature over SOAP envelopes (paper
// §5.1): detached signatures binding a sender's certificate chain to the
// envelope's canonical form.
//
// The stateless mode of GT3 is built directly on SignEnvelope: "a message
// can be created and signed, allowing the recipient to verify the
// message's origin and integrity, without establishing synchronous
// communication with the recipient" — the signature carries everything
// the verifier needs.
package xmlsec

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/gridcert"
	"repro/internal/soap"
	"repro/internal/wire"
)

// SignatureHeader is the envelope header block carrying the detached
// signature.
const SignatureHeader = "ds:Signature"

// TimestampHeader carries the signing time (covered by the signature).
const TimestampHeader = "wsu:Timestamp"

// signatureBlock is the wire form of the detached signature.
type signatureBlock struct {
	chain    []byte // sender certificate chain (BinarySecurityToken)
	covered  []string
	sigValue []byte
}

func (s signatureBlock) encode() []byte {
	e := wire.NewEncoder()
	e.Bytes(s.chain)
	e.U32(uint32(len(s.covered)))
	for _, c := range s.covered {
		e.Str(c)
	}
	e.Bytes(s.sigValue)
	return e.Finish()
}

func decodeSignatureBlock(b []byte) (signatureBlock, error) {
	d := wire.NewDecoder(b)
	var s signatureBlock
	s.chain = d.Bytes()
	n := d.Count("covered header", 64)
	for i := 0; i < n; i++ {
		s.covered = append(s.covered, d.Str())
	}
	s.sigValue = d.Bytes()
	if err := d.Done(); err != nil {
		return signatureBlock{}, err
	}
	return s, nil
}

// SignEnvelope adds a timestamp and a detached signature over the
// envelope's canonical form (addressing + the named headers + timestamp +
// body), signed with the credential's key and carrying its chain.
func SignEnvelope(env *soap.Envelope, cred *gridcert.Credential, extraHeaders ...string) error {
	if cred == nil {
		return errors.New("xmlsec: nil credential")
	}
	env.SetHeader(TimestampHeader, []byte(time.Now().UTC().Format(time.RFC3339Nano)))
	covered := append([]string{TimestampHeader}, extraHeaders...)
	canonical := env.Canonical(covered...)
	sig, err := cred.Key.Sign(canonical)
	if err != nil {
		return fmt.Errorf("xmlsec: signing envelope: %w", err)
	}
	block := signatureBlock{
		chain:    gridcert.EncodeChain(cred.Chain),
		covered:  covered,
		sigValue: sig,
	}
	env.SetHeader(SignatureHeader, block.encode())
	return nil
}

// VerifyOptions tunes envelope verification.
type VerifyOptions struct {
	// TrustStore validates the signer chain (required).
	TrustStore *gridcert.TrustStore
	// MaxAge rejects envelopes whose timestamp is older (0 = 5 minutes).
	MaxAge time.Duration
	// Now overrides the clock.
	Now time.Time
	// RejectLimited refuses signatures from limited-proxy chains.
	RejectLimited bool
}

// VerifyEnvelope checks the detached signature and returns the validated
// signer information.
func VerifyEnvelope(env *soap.Envelope, opts VerifyOptions) (*gridcert.ChainInfo, error) {
	if opts.TrustStore == nil {
		return nil, errors.New("xmlsec: verification requires a trust store")
	}
	h, ok := env.Header(SignatureHeader)
	if !ok {
		return nil, errors.New("xmlsec: envelope is not signed")
	}
	block, err := decodeSignatureBlock(h.Content)
	if err != nil {
		return nil, fmt.Errorf("xmlsec: malformed signature block: %w", err)
	}
	// Freshness first, and only a timestamp the signature covers counts:
	// a stale or replayed envelope costs no chain verification.
	if !slices.Contains(block.covered, TimestampHeader) {
		return nil, errors.New("xmlsec: signature does not cover the timestamp")
	}
	tsRaw, ok := env.Header(TimestampHeader)
	if !ok {
		return nil, errors.New("xmlsec: signed envelope missing timestamp")
	}
	ts, err := time.Parse(time.RFC3339Nano, string(tsRaw.Content))
	if err != nil {
		return nil, fmt.Errorf("xmlsec: bad timestamp: %w", err)
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	maxAge := opts.MaxAge
	if maxAge == 0 {
		maxAge = 5 * time.Minute
	}
	age := now.Sub(ts)
	if age > maxAge || age < -time.Minute {
		return nil, fmt.Errorf("xmlsec: timestamp outside freshness window (age %v)", age)
	}
	chain, err := gridcert.DecodeChain(block.chain)
	if err != nil {
		return nil, fmt.Errorf("xmlsec: signer chain: %w", err)
	}
	info, err := opts.TrustStore.Verify(chain, gridcert.VerifyOptions{
		Now:           now,
		RejectLimited: opts.RejectLimited,
	})
	if err != nil {
		return nil, fmt.Errorf("xmlsec: signer chain: %w", err)
	}
	canonical := env.Canonical(block.covered...)
	if err := chain[0].PublicKey.Verify(canonical, block.sigValue); err != nil {
		return nil, fmt.Errorf("xmlsec: signature: %w", err)
	}
	return info, nil
}

// PeekSigner extracts the *claimed* signer identity from a signed
// envelope WITHOUT verifying anything. It exists for routing decisions
// only (the GT3 Proxy Router picks a destination by requester); every
// security decision must instead use VerifyEnvelope.
func PeekSigner(env *soap.Envelope) (gridcert.Name, error) {
	h, ok := env.Header(SignatureHeader)
	if !ok {
		return gridcert.Name{}, errors.New("xmlsec: envelope is not signed")
	}
	block, err := decodeSignatureBlock(h.Content)
	if err != nil {
		return gridcert.Name{}, err
	}
	chain, err := gridcert.DecodeChain(block.chain)
	if err != nil {
		return gridcert.Name{}, err
	}
	// The identity is the first non-proxy certificate's subject.
	for _, c := range chain {
		if !c.IsProxy() {
			return c.Subject, nil
		}
	}
	return chain[0].Subject, nil
}
