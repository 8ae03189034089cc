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
	expiry    time.Time
	now       func() time.Time

	sealer *gridcrypto.Sealer
	opener *gridcrypto.Opener
	micKey []byte // local MIC signing key
	vfyKey []byte // peer MIC verification key
}

func newContext(initiator bool, ks keySchedule, peer Peer, cfg Config) (*Context, error) {
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

// Expiry returns when the context lapses.
func (c *Context) Expiry() time.Time { return c.expiry }

// Expired reports whether the context has lapsed.
func (c *Context) Expired() bool { return c.now().After(c.expiry) }

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
	pt, err := c.opener.OpenInto(ct[:0], seq, ct, wrapAAD)
	if err != nil {
		return nil, fmt.Errorf("gss: unwrap: %w", err)
	}
	return pt, nil
}

// Chunk-token layout: seq (8) || length (4) || chunk header (clear) ||
// ciphertext. The record layer's chunk header — type and chunk sequence
// number; its length is the record layer's to fix — travels in the
// clear, bound with the length as the AEAD's associated data, so a chunk
// seals straight from the caller's payload and opens straight into its
// destination. That AAD (13 bytes under the record layer's 9-byte
// header) is never a message token's wrapAAD: neither kind of record
// opens as the other.

// chunkAAD is the associated data of the chunk token at token[off:]
// whose clear header is hdrLen bytes: its length field and that header,
// as they lie in the token.
func chunkAAD(token []byte, off, hdrLen int) []byte {
	return token[off+8 : off+WrapPrefix+hdrLen]
}

// appendChunkPrefix appends a chunk token's prefix for an n-byte payload
// — the seq placeholder, the length, and hdr — to dst. hdr may already
// lie where it is to be appended.
func appendChunkPrefix(dst, hdr []byte, n int) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(hdr)+n+gridcrypto.SealOverhead))
	return append(dst, hdr...)
}

// WrapChunkInto appends a chunk token to dst: hdr in the clear, payload
// sealed straight from where it lies into dst's spare capacity. hdr may
// be the very bytes of dst's spare capacity it is copied to; payload
// must not overlap that capacity.
func (c *Context) WrapChunkInto(dst, hdr, payload []byte) ([]byte, error) {
	if c.Expired() {
		return nil, ErrContextExpired
	}
	off := len(dst)
	dst = appendChunkPrefix(dst, hdr, len(payload))
	seq, out, err := c.sealer.SealInto(dst, payload, chunkAAD(dst, off, len(hdr)))
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint64(out[off:], seq)
	return out, nil
}

// ReserveWrap claims the next wrap sequence number without sealing.
// It anchors the pipelined send path: a submitter reserves in
// submission order, worker goroutines seal concurrently with
// WrapChunkAt, and submission order alone fixes the wire order the
// peer's in-order opener will verify. Every reservation must be
// consumed by exactly one WrapChunkAt (a reused seq would reuse a GCM
// nonce).
func (c *Context) ReserveWrap() (uint64, error) {
	if c.Expired() {
		return 0, ErrContextExpired
	}
	return c.sealer.Reserve()
}

// WrapChunkAt is WrapChunkInto sealing under a sequence number obtained
// from ReserveWrap, its nonce built in the caller's scratch. Any number
// of goroutines may call it concurrently, each with its own reservation
// and scratch.
func (c *Context) WrapChunkAt(seq uint64, nonce *[12]byte, dst, hdr, payload []byte) []byte {
	off := len(dst)
	dst = appendChunkPrefix(dst, hdr, len(payload))
	out := c.sealer.SealAt(nonce, seq, dst, payload, chunkAAD(dst, off, len(hdr)))
	binary.BigEndian.PutUint64(out[off:], seq)
	return out
}

// UnwrapChunkInto opens the peer's chunk token, whose clear header is
// hdrLen bytes, appending the payload to dst, and returns that header,
// authenticated with it. Pass dst = token[WrapPrefix+hdrLen:][:0] to
// open in place: the header and payload are then contiguous in the
// token. On failure dst's spare capacity is undefined.
func (c *Context) UnwrapChunkInto(dst, token []byte, hdrLen int) (hdr, out []byte, err error) {
	seq, body, err := c.parseWrapToken(token)
	if err != nil {
		return nil, nil, err
	}
	if len(body) < hdrLen {
		return nil, nil, fmt.Errorf("gss: bad chunk token: %w", wire.ErrTruncated)
	}
	out, err = c.opener.OpenInto(dst, seq, body[hdrLen:], chunkAAD(token, 0, hdrLen))
	if err != nil {
		return nil, nil, fmt.Errorf("gss: unwrap: %w", err)
	}
	return body[:hdrLen], out, nil
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
// clock, and — crucially — its expiry, which newContext already
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
	ks := deriveKeys(salt, ikm, resumeLabels)
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
	mic := gridcrypto.HMACSHA256(c.micKey, msg)
	return mic[:]
}

// VerifyMIC checks a MIC produced by the peer's GetMIC.
func (c *Context) VerifyMIC(msg, mic []byte) error {
	if want := gridcrypto.HMACSHA256(c.vfyKey, msg); !gridcrypto.HMACEqual(mic, want[:]) {
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
