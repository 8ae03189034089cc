// Package gss implements a GSS-API-style security layer for the grid: the
// establishment of a mutual-authentication security context from GSI
// credentials, followed by per-message protection (wrap/unwrap and MICs).
//
// The same context-establishment tokens are used by the GT2 transport
// (internal/gsitransport, which frames them over TCP) and by the GT3
// WS-SecureConversation implementation (internal/wssec, which carries them
// in SOAP envelopes) — mirroring the paper's observation (§5.1) that "the
// GT3 messages carry the same context establishment tokens used by GT2
// but transports them over SOAP instead of TCP."
//
// The handshake is a three-token SIGMA-style exchange:
//
//	token1 (I→A): version, flags, initiator nonce, ECDH share
//	token2 (A→I): acceptor nonce, ECDH share, acceptor chain,
//	              signature over transcript, finished MAC
//	token3 (I→A): initiator chain (unless anonymous), signature over
//	              transcript, finished MAC
//
// Both identities are proven by signing the running transcript hash, and
// traffic keys are bound to the transcript via HKDF.
package gss

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
	"repro/internal/wire"
)

// Flags requested by the initiator for the context.
type Flags uint8

const (
	// FlagMutual requests mutual authentication (always on in GSI).
	FlagMutual Flags = 1 << iota
	// FlagAnonymous withholds the initiator identity: only the acceptor
	// authenticates. Used for policy-discovery requests.
	FlagAnonymous
	// FlagDelegate signals that the initiator intends to delegate a proxy
	// credential immediately after establishment.
	FlagDelegate
)

const protocolVersion = 3 // "GSI3"

// Config parameterises either side of a context establishment.
type Config struct {
	// Credential authenticates the local party. May be nil only for an
	// anonymous initiator.
	Credential *gridcert.Credential
	// TrustStore validates the peer's chain.
	TrustStore *gridcert.TrustStore
	// Anonymous (initiator only) withholds the local identity.
	Anonymous bool
	// Delegate (initiator only) announces the intent to delegate a proxy
	// credential immediately after establishment (sets FlagDelegate).
	Delegate bool
	// RejectLimited refuses peers authenticating with limited proxies.
	RejectLimited bool
	// MaxProxyDepth caps the peer chain's proxy depth (0 = unlimited).
	MaxProxyDepth int
	// ExpectedPeer, if non-empty, requires the peer's *identity* (its
	// end-entity subject) to equal this name.
	ExpectedPeer gridcert.Name
	// Lifetime caps the context lifetime; 0 means 12h.
	Lifetime time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

func (c Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c Config) lifetime() time.Duration {
	if c.Lifetime > 0 {
		return c.Lifetime
	}
	return 12 * time.Hour
}

// Peer describes the authenticated remote party of a context.
type Peer struct {
	// Anonymous is true when the peer proved no identity.
	Anonymous bool
	// Identity is the peer's grid identity (end-entity subject).
	Identity gridcert.Name
	// Subject is the peer's leaf subject (proxy identity if delegated).
	Subject gridcert.Name
	// Chain is the peer's validated certificate chain (nil if anonymous).
	Chain []*gridcert.Certificate
	// Info is the validation result (nil if anonymous).
	Info *gridcert.ChainInfo
	// LocalAccount is the local account an authorization pipeline mapped
	// the peer's grid identity to via the grid-mapfile (paper §5.3 step
	// 3). Empty when no gridmap is configured; populated per exchange by
	// the facade before the handler runs.
	LocalAccount string
}

// errors exposed for callers that branch on them.
var (
	ErrContextExpired = errors.New("gss: security context expired")
	ErrBadToken       = errors.New("gss: malformed or unexpected token")
	ErrAuthFailed     = errors.New("gss: peer authentication failed")
)

// --- token encodings -------------------------------------------------

type token1 struct {
	flags Flags
	nonce []byte // 32 bytes
	share []byte // X25519 public share
}

func (t token1) encode() []byte {
	return wire.NewEncoder().
		U8(protocolVersion).U8(1).
		U8(uint8(t.flags)).
		Bytes(t.nonce).
		Bytes(t.share).
		Finish()
}

func decodeToken1(b []byte) (token1, error) {
	d := wire.NewDecoder(b)
	ver, typ := d.U8(), d.U8()
	t := token1{
		flags: Flags(d.U8()),
		nonce: d.Bytes(),
		share: d.Bytes(),
	}
	if err := d.Done(); err != nil {
		return token1{}, err
	}
	if ver != protocolVersion || typ != 1 {
		return token1{}, fmt.Errorf("%w: version %d type %d", ErrBadToken, ver, typ)
	}
	if len(t.nonce) != 32 || len(t.share) != 32 {
		return token1{}, fmt.Errorf("%w: bad nonce/share length", ErrBadToken)
	}
	return t, nil
}

type token2 struct {
	nonce    []byte
	share    []byte
	chain    []byte // encoded cert chain
	sig      []byte // acceptor signature over transcript(token1||fields)
	finished []byte // MAC over transcript with acceptor finished key
}

func (t token2) encode() []byte {
	return wire.NewEncoder().
		U8(protocolVersion).U8(2).
		Bytes(t.nonce).
		Bytes(t.share).
		Bytes(t.chain).
		Bytes(t.sig).
		Bytes(t.finished).
		Finish()
}

func decodeToken2(b []byte) (token2, error) {
	d := wire.NewDecoder(b)
	ver, typ := d.U8(), d.U8()
	t := token2{
		nonce:    d.Bytes(),
		share:    d.Bytes(),
		chain:    d.Bytes(),
		sig:      d.Bytes(),
		finished: d.Bytes(),
	}
	if err := d.Done(); err != nil {
		return token2{}, err
	}
	if ver != protocolVersion || typ != 2 {
		return token2{}, fmt.Errorf("%w: version %d type %d", ErrBadToken, ver, typ)
	}
	if len(t.nonce) != 32 || len(t.share) != 32 {
		return token2{}, fmt.Errorf("%w: bad nonce/share length", ErrBadToken)
	}
	return t, nil
}

type token3 struct {
	anonymous bool
	chain     []byte
	sig       []byte
	finished  []byte
}

func (t token3) encode() []byte {
	return wire.NewEncoder().
		U8(protocolVersion).U8(3).
		Bool(t.anonymous).
		Bytes(t.chain).
		Bytes(t.sig).
		Bytes(t.finished).
		Finish()
}

func decodeToken3(b []byte) (token3, error) {
	d := wire.NewDecoder(b)
	ver, typ := d.U8(), d.U8()
	t := token3{
		anonymous: d.Bool(),
		chain:     d.Bytes(),
		sig:       d.Bytes(),
		finished:  d.Bytes(),
	}
	if err := d.Done(); err != nil {
		return token3{}, err
	}
	if ver != protocolVersion || typ != 3 {
		return token3{}, fmt.Errorf("%w: version %d type %d", ErrBadToken, ver, typ)
	}
	return t, nil
}

// --- transcript and key schedule --------------------------------------

type transcript struct {
	h [32]byte
}

func (tr *transcript) add(label string, data []byte) {
	h := sha256.New()
	h.Write(tr.h[:])
	h.Write([]byte(label))
	h.Write(data)
	copy(tr.h[:], h.Sum(nil))
}

func (tr *transcript) sum() []byte { return append([]byte(nil), tr.h[:]...) }

type keySchedule struct {
	initWrite   []byte // initiator's sending key
	acceptWrite []byte // acceptor's sending key
	initFin     []byte
	acceptFin   []byte
}

func deriveKeys(secret []byte, transcriptHash []byte) (keySchedule, error) {
	prk := gridcrypto.HKDFExtract(transcriptHash, secret)
	var ks keySchedule
	var err error
	if ks.initWrite, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 initiator write"), gridcrypto.AEADKeySize); err != nil {
		return ks, err
	}
	if ks.acceptWrite, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 acceptor write"), gridcrypto.AEADKeySize); err != nil {
		return ks, err
	}
	if ks.initFin, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 initiator finished"), 32); err != nil {
		return ks, err
	}
	if ks.acceptFin, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 acceptor finished"), 32); err != nil {
		return ks, err
	}
	return ks, nil
}
