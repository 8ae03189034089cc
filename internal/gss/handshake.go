package gss

import (
	"errors"
	"fmt"

	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
)

// Initiator drives the client side of context establishment.
type Initiator struct {
	cfg   Config
	ecdh  *gridcrypto.ECDHKeyPair
	tr    transcript
	flags Flags
	state int // 0 = new, 1 = token1 sent, 2 = done
}

// NewInitiator prepares an initiator. If cfg.Anonymous is false a
// credential is required.
func NewInitiator(cfg Config) (*Initiator, error) {
	if !cfg.Anonymous && cfg.Credential == nil {
		return nil, errors.New("gss: initiator requires a credential unless anonymous")
	}
	if cfg.TrustStore == nil {
		return nil, errors.New("gss: initiator requires a trust store")
	}
	return &Initiator{cfg: cfg}, nil
}

// Start produces token1.
func (i *Initiator) Start() ([]byte, error) {
	if i.state != 0 {
		return nil, errors.New("gss: Start called twice")
	}
	var err error
	i.ecdh, err = gridcrypto.GenerateECDH()
	if err != nil {
		return nil, err
	}
	nonce, err := gridcrypto.RandomBytes(32)
	if err != nil {
		return nil, err
	}
	i.flags = FlagMutual
	if i.cfg.Anonymous {
		i.flags |= FlagAnonymous
	}
	if i.cfg.Delegate {
		i.flags |= FlagDelegate
	}
	t1 := token1{flags: i.flags, nonce: nonce, share: i.ecdh.PublicBytes()}
	enc := t1.encode()
	i.tr.add("token1", enc)
	i.state = 1
	return enc, nil
}

// Finish consumes token2 and produces token3 plus the established context.
func (i *Initiator) Finish(token2Bytes []byte) ([]byte, *Context, error) {
	if i.state != 1 {
		return nil, nil, errors.New("gss: Finish before Start")
	}
	i.state = 2
	t2, err := decodeToken2(token2Bytes)
	if err != nil {
		return nil, nil, err
	}

	// Authenticate the acceptor: decode and validate its chain, then check
	// its signature over the transcript-so-far.
	chain, err := gridcert.DecodeChain(t2.chain)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: acceptor chain: %w", ErrAuthFailed, err)
	}
	info, err := i.cfg.TrustStore.Verify(chain, gridcert.VerifyOptions{
		Now:           i.cfg.now(),
		RejectLimited: i.cfg.RejectLimited,
		MaxProxyDepth: i.cfg.MaxProxyDepth,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: acceptor chain: %w", ErrAuthFailed, err)
	}
	if !i.cfg.ExpectedPeer.Empty() && !info.Identity.Equal(i.cfg.ExpectedPeer) {
		return nil, nil, fmt.Errorf("%w: acceptor identity %q, expected %q", ErrAuthFailed, info.Identity, i.cfg.ExpectedPeer)
	}

	// Rebuild the signed transcript: token1 || token2 core fields.
	sigTr := i.tr
	sigTr.add("token2-core", token2Core(t2))
	signed := sigTr.sum()
	if err := chain[0].PublicKey.Verify(signed[:], t2.sig); err != nil {
		return nil, nil, fmt.Errorf("%w: acceptor transcript signature: %v", ErrAuthFailed, err)
	}

	// Key agreement and schedule.
	secret, err := i.ecdh.SharedSecret(t2.share)
	if err != nil {
		return nil, nil, err
	}
	keyTr := sigTr
	keyTr.add("token2-sig", t2.sig)
	keyed := keyTr.sum()
	ks := deriveKeys(keyed[:], secret, handshakeLabels)
	// Verify the acceptor's finished MAC (binds keys to transcript).
	if fin := gridcrypto.HMACSHA256(ks.acceptFin, keyed[:]); !gridcrypto.HMACEqual(t2.finished, fin[:]) {
		return nil, nil, fmt.Errorf("%w: acceptor finished MAC", ErrAuthFailed)
	}

	// Build token3: prove our identity (unless anonymous).
	t3 := token3{anonymous: i.cfg.Anonymous}
	respTr := keyTr
	respTr.add("token2-finished", t2.finished)
	if !i.cfg.Anonymous {
		t3.chain = gridcert.EncodeChain(i.cfg.Credential.Chain)
		respTr.add("token3-chain", t3.chain)
		signed = respTr.sum()
		sig, err := i.cfg.Credential.Key.Sign(signed[:])
		if err != nil {
			return nil, nil, err
		}
		t3.sig = sig
		respTr.add("token3-sig", sig)
	} else {
		respTr.add("token3-chain", nil)
		respTr.add("token3-sig", nil)
	}
	resp := respTr.sum()
	fin := gridcrypto.HMACSHA256(ks.initFin, resp[:])
	t3.finished = fin[:]

	ctx, err := newContext(true, ks, Peer{
		Identity: info.Identity,
		Subject:  info.Subject,
		Chain:    chain,
		Info:     info,
	}, i.cfg)
	if err != nil {
		return nil, nil, err
	}
	return t3.encode(), ctx, nil
}

// Acceptor drives the server side of context establishment.
type Acceptor struct {
	cfg   Config
	ecdh  *gridcrypto.ECDHKeyPair
	tr    transcript
	ks    keySchedule
	flags Flags
	state int
}

// NewAcceptor prepares an acceptor; a credential is mandatory because GSI
// always authenticates the service side.
func NewAcceptor(cfg Config) (*Acceptor, error) {
	if cfg.Credential == nil {
		return nil, errors.New("gss: acceptor requires a credential")
	}
	if cfg.TrustStore == nil {
		return nil, errors.New("gss: acceptor requires a trust store")
	}
	return &Acceptor{cfg: cfg}, nil
}

// Accept consumes token1 and produces token2.
func (a *Acceptor) Accept(token1Bytes []byte) ([]byte, error) {
	if a.state != 0 {
		return nil, errors.New("gss: Accept called twice")
	}
	a.state = 1
	t1, err := decodeToken1(token1Bytes)
	if err != nil {
		return nil, err
	}
	a.flags = t1.flags
	a.tr.add("token1", token1Bytes)

	a.ecdh, err = gridcrypto.GenerateECDH()
	if err != nil {
		return nil, err
	}
	nonce, err := gridcrypto.RandomBytes(32)
	if err != nil {
		return nil, err
	}
	t2 := token2{
		nonce: nonce,
		share: a.ecdh.PublicBytes(),
		chain: gridcert.EncodeChain(a.cfg.Credential.Chain),
	}
	sigTr := a.tr
	sigTr.add("token2-core", token2Core(t2))
	signed := sigTr.sum()
	sig, err := a.cfg.Credential.Key.Sign(signed[:])
	if err != nil {
		return nil, err
	}
	t2.sig = sig

	secret, err := a.ecdh.SharedSecret(t1.share)
	if err != nil {
		return nil, err
	}
	keyTr := sigTr
	keyTr.add("token2-sig", sig)
	keyed := keyTr.sum()
	a.ks = deriveKeys(keyed[:], secret, handshakeLabels)
	fin := gridcrypto.HMACSHA256(a.ks.acceptFin, keyed[:])
	t2.finished = fin[:]
	a.tr = keyTr
	a.tr.add("token2-finished", t2.finished)
	a.state = 2
	return t2.encode(), nil
}

// Complete consumes token3 and returns the established context.
func (a *Acceptor) Complete(token3Bytes []byte) (*Context, error) {
	if a.state != 2 {
		return nil, errors.New("gss: Complete before Accept")
	}
	a.state = 3
	t3, err := decodeToken3(token3Bytes)
	if err != nil {
		return nil, err
	}
	peer := Peer{Anonymous: t3.anonymous}
	respTr := a.tr
	if !t3.anonymous {
		chain, err := gridcert.DecodeChain(t3.chain)
		if err != nil {
			return nil, fmt.Errorf("%w: initiator chain: %w", ErrAuthFailed, err)
		}
		info, err := a.cfg.TrustStore.Verify(chain, gridcert.VerifyOptions{
			Now:           a.cfg.now(),
			RejectLimited: a.cfg.RejectLimited,
			MaxProxyDepth: a.cfg.MaxProxyDepth,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: initiator chain: %w", ErrAuthFailed, err)
		}
		if !a.cfg.ExpectedPeer.Empty() && !info.Identity.Equal(a.cfg.ExpectedPeer) {
			return nil, fmt.Errorf("%w: initiator identity %q, expected %q", ErrAuthFailed, info.Identity, a.cfg.ExpectedPeer)
		}
		respTr.add("token3-chain", t3.chain)
		signed := respTr.sum()
		if err := chain[0].PublicKey.Verify(signed[:], t3.sig); err != nil {
			return nil, fmt.Errorf("%w: initiator transcript signature: %v", ErrAuthFailed, err)
		}
		respTr.add("token3-sig", t3.sig)
		peer.Identity = info.Identity
		peer.Subject = info.Subject
		peer.Chain = chain
		peer.Info = info
	} else {
		if a.flags&FlagAnonymous == 0 {
			return nil, fmt.Errorf("%w: anonymous token3 without anonymous flag", ErrBadToken)
		}
		respTr.add("token3-chain", nil)
		respTr.add("token3-sig", nil)
	}
	resp := respTr.sum()
	if fin := gridcrypto.HMACSHA256(a.ks.initFin, resp[:]); !gridcrypto.HMACEqual(t3.finished, fin[:]) {
		return nil, fmt.Errorf("%w: initiator finished MAC", ErrAuthFailed)
	}
	return newContext(false, a.ks, peer, a.cfg)
}

// token2Core encodes the fields of token2 covered by the signature.
func token2Core(t token2) []byte {
	out := make([]byte, 0, len(t.nonce)+len(t.share)+len(t.chain))
	out = append(out, t.nonce...)
	out = append(out, t.share...)
	out = append(out, t.chain...)
	return out
}
