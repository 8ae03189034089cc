package gss

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/gridcrypto"
	"repro/internal/wire"
)

// Context is an established security context. It provides message
// protection (Wrap/Unwrap), integrity-only MICs, and exposes the
// authenticated peer. Contexts are safe for concurrent use.
type Context struct {
	initiator bool
	peer      Peer
	flags     Flags
	expiry    time.Time
	now       func() time.Time

	sealer *gridcrypto.Sealer
	opener *gridcrypto.Opener
	micKey []byte // local MIC signing key
	vfyKey []byte // peer MIC verification key
}

func newContext(initiator bool, ks keySchedule, peer Peer, cfg Config, flags Flags) (*Context, error) {
	sendKey, recvKey := ks.initWrite, ks.acceptWrite
	micKey, vfyKey := ks.initFin, ks.acceptFin
	if !initiator {
		sendKey, recvKey = recvKey, sendKey
		micKey, vfyKey = vfyKey, micKey
	}
	sealer, err := gridcrypto.NewSealer(sendKey)
	if err != nil {
		return nil, err
	}
	opener, err := gridcrypto.NewOpener(recvKey)
	if err != nil {
		return nil, err
	}
	nowFn := cfg.Now
	if nowFn == nil {
		nowFn = time.Now
	}
	expiry := nowFn().Add(cfg.lifetime())
	// A context never outlives the credentials that authenticated it —
	// neither the local one nor any certificate in the peer's validated
	// chain (chain validity is the min over the chain: the instant any
	// link lapses, re-validation of the peer would fail, so the context
	// must lapse with it). This is what lets credential rotation reason
	// about contexts: once the old credential's NotAfter passes, every
	// context it authenticated — and every resumed child, which inherits
	// this expiry — is provably dead.
	if cfg.Credential != nil && cfg.Credential.Leaf().NotAfter.Before(expiry) {
		expiry = cfg.Credential.Leaf().NotAfter
	}
	for _, cert := range peer.Chain {
		if cert.NotAfter.Before(expiry) {
			expiry = cert.NotAfter
		}
	}
	return &Context{
		initiator: initiator,
		peer:      peer,
		flags:     flags,
		expiry:    expiry,
		now:       nowFn,
		sealer:    sealer,
		opener:    opener,
		micKey:    micKey,
		vfyKey:    vfyKey,
	}, nil
}

// Peer returns the authenticated remote party.
func (c *Context) Peer() Peer { return c.peer }

// Initiator reports whether the local side initiated the context.
func (c *Context) Initiator() bool { return c.initiator }

// Expiry returns when the context lapses.
func (c *Context) Expiry() time.Time { return c.expiry }

// Expired reports whether the context has lapsed.
func (c *Context) Expired() bool { return c.now().After(c.expiry) }

// DelegationRequested reports whether the initiator set FlagDelegate.
func (c *Context) DelegationRequested() bool { return c.flags&FlagDelegate != 0 }

// Wrap-token layout: seq (8) || ciphertext length (4) || ciphertext.
const (
	// WrapPrefix is the header WrapInto prepends before the ciphertext.
	WrapPrefix = 12
	// WrapOverhead is the total expansion of WrapInto over the plaintext
	// (header plus AEAD tag).
	WrapOverhead = WrapPrefix + gridcrypto.SealOverhead
)

// wrapAAD binds every wrap token to its purpose.
var wrapAAD = []byte("gsi3 wrap")

// Wrap protects a message (confidentiality + integrity + ordering) for
// the peer. Thin shim over WrapInto with a fresh exact-size buffer.
func (c *Context) Wrap(plaintext []byte) ([]byte, error) {
	return c.WrapInto(make([]byte, 0, len(plaintext)+WrapOverhead), plaintext)
}

// WrapInto is Wrap appending the token to dst: header, then ciphertext,
// sealed straight into dst's spare capacity — no intermediate buffer.
// For a fully in-place wrap, assemble the plaintext at offset WrapPrefix
// of a buffer with SealOverhead spare tail capacity and pass the buffer's
// origin as dst:
//
//	token, err := ctx.WrapInto(buf[:0], buf[WrapPrefix:WrapPrefix+n])
//
// (dst's free space and plaintext must otherwise not overlap, per
// crypto/cipher.)
func (c *Context) WrapInto(dst, plaintext []byte) ([]byte, error) {
	if c.Expired() {
		return nil, ErrContextExpired
	}
	off := len(dst)
	var hdr [WrapPrefix]byte
	dst = append(dst, hdr[:]...)
	seq, out, err := c.sealer.SealInto(dst, plaintext, wrapAAD)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(out[off:], seq)
	binary.BigEndian.PutUint32(out[off+8:], uint32(len(out)-off-WrapPrefix))
	return out, nil
}

// Unwrap reverses the peer's Wrap into a fresh buffer, leaving the token
// intact. Thin shim kept for callers that need the token afterwards.
func (c *Context) Unwrap(wrapped []byte) ([]byte, error) {
	seq, ct, err := c.parseWrapToken(wrapped)
	if err != nil {
		return nil, err
	}
	pt, err := c.opener.Open(seq, ct, wrapAAD)
	if err != nil {
		return nil, fmt.Errorf("gss: unwrap: %w", err)
	}
	return pt, nil
}

// UnwrapInPlace reverses the peer's Wrap decrypting into the token's own
// storage: the returned plaintext is a view into wrapped (valid only as
// long as the caller keeps that buffer), and the token is consumed — on
// failure its contents are undefined.
func (c *Context) UnwrapInPlace(wrapped []byte) ([]byte, error) {
	seq, ct, err := c.parseWrapToken(wrapped)
	if err != nil {
		return nil, err
	}
	pt, err := c.opener.OpenInPlace(seq, ct, wrapAAD)
	if err != nil {
		return nil, fmt.Errorf("gss: unwrap: %w", err)
	}
	return pt, nil
}

// ReserveWrap claims the next wrap sequence number without sealing.
// It anchors the pipelined send path: a submitter reserves in
// submission order, worker goroutines seal concurrently with WrapAtInto,
// and submission order alone fixes the wire order the peer's in-order
// opener will verify. Every reservation must be consumed by exactly one
// WrapAtInto (a reused seq would reuse a GCM nonce).
func (c *Context) ReserveWrap() (uint64, error) {
	if c.Expired() {
		return 0, ErrContextExpired
	}
	return c.sealer.Reserve()
}

// WrapAtInto is WrapInto sealing under a sequence number previously
// obtained from ReserveWrap. It is safe for any number of goroutines to
// call concurrently with distinct reservations; dst layout rules match
// WrapInto.
func (c *Context) WrapAtInto(seq uint64, dst, plaintext []byte) ([]byte, error) {
	off := len(dst)
	var hdr [WrapPrefix]byte
	dst = append(dst, hdr[:]...)
	out := c.sealer.SealAtInto(seq, dst, plaintext, wrapAAD)
	binary.BigEndian.PutUint64(out[off:], seq)
	binary.BigEndian.PutUint32(out[off+8:], uint32(len(out)-off-WrapPrefix))
	return out, nil
}

func (c *Context) parseWrapToken(wrapped []byte) (seq uint64, ct []byte, err error) {
	if c.Expired() {
		return 0, nil, ErrContextExpired
	}
	if len(wrapped) < WrapPrefix {
		return 0, nil, fmt.Errorf("gss: bad wrap token: %w", wire.ErrTruncated)
	}
	seq = binary.BigEndian.Uint64(wrapped)
	n := binary.BigEndian.Uint32(wrapped[8:])
	if int(n) != len(wrapped)-WrapPrefix {
		return 0, nil, fmt.Errorf("gss: bad wrap token: ciphertext length %d in a %d-byte token", n, len(wrapped))
	}
	return seq, wrapped[WrapPrefix:], nil
}

// WrapPrefix and WrapOverhead as methods satisfy the record layer's
// Protector interface (internal/record), which keeps no compile-time
// dependency on this package.
func (c *Context) WrapPrefix() int   { return WrapPrefix }
func (c *Context) WrapOverhead() int { return WrapOverhead }

// ResumeNonceSize is the length both resumption nonces must have.
const ResumeNonceSize = 32

// Resume derives a child context from an established one without any
// public-key operation: fresh wrap and MIC keys are drawn by HKDF from
// the parent's finished keys (known to both sides, ordered canonically)
// salted with the two resumption nonces. Both parties call Resume with
// the same nonces and obtain matching key schedules; each keeps its own
// orientation. The child inherits the parent's authenticated peer,
// flags, clock, and — crucially — its expiry, which newContext already
// clamped to the local credential's lifetime: a resumed context can
// never outlive the credential that authenticated the original
// handshake. A lapsed parent cannot be resumed.
//
// This is the WS-SecureConversation amortization the paper's §5.1
// measures: one expensive bootstrap, many cheap session-key refreshes.
func (c *Context) Resume(clientNonce, serverNonce []byte) (*Context, error) {
	if c.Expired() {
		return nil, ErrContextExpired
	}
	if len(clientNonce) != ResumeNonceSize || len(serverNonce) != ResumeNonceSize {
		return nil, fmt.Errorf("%w: resumption nonce must be %d bytes", ErrBadToken, ResumeNonceSize)
	}
	// Order the finished keys canonically (initiator's first) so both
	// orientations derive the same material.
	initFin, acceptFin := c.micKey, c.vfyKey
	if !c.initiator {
		initFin, acceptFin = acceptFin, initFin
	}
	ikm := make([]byte, 0, len(initFin)+len(acceptFin))
	ikm = append(ikm, initFin...)
	ikm = append(ikm, acceptFin...)
	salt := make([]byte, 0, len(clientNonce)+len(serverNonce))
	salt = append(salt, clientNonce...)
	salt = append(salt, serverNonce...)
	prk := gridcrypto.HKDFExtract(salt, ikm)
	var ks keySchedule
	var err error
	if ks.initWrite, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 resume initiator write"), gridcrypto.AEADKeySize); err != nil {
		return nil, err
	}
	if ks.acceptWrite, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 resume acceptor write"), gridcrypto.AEADKeySize); err != nil {
		return nil, err
	}
	if ks.initFin, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 resume initiator finished"), 32); err != nil {
		return nil, err
	}
	if ks.acceptFin, err = gridcrypto.HKDFExpand(prk, []byte("gsi3 resume acceptor finished"), 32); err != nil {
		return nil, err
	}
	sendKey, recvKey := ks.initWrite, ks.acceptWrite
	micKey, vfyKey := ks.initFin, ks.acceptFin
	if !c.initiator {
		sendKey, recvKey = recvKey, sendKey
		micKey, vfyKey = vfyKey, micKey
	}
	sealer, err := gridcrypto.NewSealer(sendKey)
	if err != nil {
		return nil, err
	}
	opener, err := gridcrypto.NewOpener(recvKey)
	if err != nil {
		return nil, err
	}
	return &Context{
		initiator: c.initiator,
		peer:      c.peer,
		flags:     c.flags,
		expiry:    c.expiry,
		now:       c.now,
		sealer:    sealer,
		opener:    opener,
		micKey:    micKey,
		vfyKey:    vfyKey,
	}, nil
}

// GetMIC computes an integrity check over msg without encrypting it.
func (c *Context) GetMIC(msg []byte) []byte {
	return gridcrypto.HMACSHA256(c.micKey, msg)
}

// VerifyMIC checks a MIC produced by the peer's GetMIC.
func (c *Context) VerifyMIC(msg, mic []byte) error {
	if !gridcrypto.HMACEqual(mic, gridcrypto.HMACSHA256(c.vfyKey, msg)) {
		return errors.New("gss: MIC verification failed")
	}
	return nil
}

// Establish runs a complete in-memory handshake between two configs and
// returns both contexts. It exists for tests and for co-located services.
func Establish(initCfg, acceptCfg Config) (initCtx, acceptCtx *Context, err error) {
	return EstablishContext(context.Background(), initCfg, acceptCfg)
}

// EstablishContext is Establish honoring ctx: cancellation or deadline
// expiry aborts the handshake at the next token boundary, returning
// ctx.Err().
func EstablishContext(ctx context.Context, initCfg, acceptCfg Config) (initCtx, acceptCtx *Context, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	init, err := NewInitiator(initCfg)
	if err != nil {
		return nil, nil, err
	}
	acc, err := NewAcceptor(acceptCfg)
	if err != nil {
		return nil, nil, err
	}
	t1, err := init.Start()
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t2, err := acc.Accept(t1)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t3, ictx, err := init.Finish(t2)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	actx, err := acc.Complete(t3)
	if err != nil {
		return nil, nil, err
	}
	return ictx, actx, nil
}
