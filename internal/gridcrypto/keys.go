// Package gridcrypto provides the cryptographic primitives used by the
// Grid Security Infrastructure reproduction: key pairs, signatures, key
// agreement, key derivation, and authenticated encryption.
//
// The package is a thin, deterministic facade over the Go standard library
// crypto packages. It exists so that the rest of the repository can treat
// "a grid key" as a single value with a stable wire encoding, independent
// of the underlying algorithm.
package gridcrypto

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
)

// Algorithm identifies a signature algorithm supported by the grid.
type Algorithm uint8

const (
	// AlgEd25519 is the Ed25519 signature scheme. It is the default for
	// proxy certificates because key generation is extremely cheap, which
	// matters for dynamic entity creation.
	AlgEd25519 Algorithm = 1
	// AlgECDSAP256 is ECDSA over NIST P-256 with SHA-256.
	AlgECDSAP256 Algorithm = 2
)

// String returns the canonical name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgEd25519:
		return "ed25519"
	case AlgECDSAP256:
		return "ecdsa-p256"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(a))
	}
}

// Valid reports whether a is a known algorithm.
func (a Algorithm) Valid() bool {
	return a == AlgEd25519 || a == AlgECDSAP256
}

// ErrUnknownAlgorithm is returned when decoding a key or signature that
// names an algorithm this build does not implement.
var ErrUnknownAlgorithm = errors.New("gridcrypto: unknown algorithm")

// ErrBadSignature is returned when signature verification fails.
var ErrBadSignature = errors.New("gridcrypto: signature verification failed")

// PublicKey is an algorithm-tagged public key with a stable wire encoding.
type PublicKey struct {
	Alg Algorithm
	// Raw holds the algorithm-specific encoding: 32 bytes for Ed25519,
	// 65-byte uncompressed point for ECDSA P-256.
	Raw []byte
}

// Equal reports whether two public keys are identical.
func (p PublicKey) Equal(q PublicKey) bool {
	return p.Alg == q.Alg && bytes.Equal(p.Raw, q.Raw)
}

// Encode returns the wire encoding of the public key: one algorithm byte
// followed by the raw key material.
func (p PublicKey) Encode() []byte {
	out := make([]byte, 1+len(p.Raw))
	out[0] = byte(p.Alg)
	copy(out[1:], p.Raw)
	return out
}

// DecodePublicKey parses a wire-encoded public key produced by Encode.
// Raw is a capacity-capped view of b, so the key aliases b: b must not
// change while the key is in use.
func DecodePublicKey(b []byte) (PublicKey, error) {
	if len(b) < 2 {
		return PublicKey{}, errors.New("gridcrypto: public key too short")
	}
	alg := Algorithm(b[0])
	raw := b[1:len(b):len(b)]
	switch alg {
	case AlgEd25519:
		if len(raw) != ed25519.PublicKeySize {
			return PublicKey{}, fmt.Errorf("gridcrypto: ed25519 public key must be %d bytes, got %d", ed25519.PublicKeySize, len(raw))
		}
	case AlgECDSAP256:
		if _, err := unmarshalP256(raw); err != nil {
			return PublicKey{}, err
		}
	default:
		return PublicKey{}, ErrUnknownAlgorithm
	}
	return PublicKey{Alg: alg, Raw: raw}, nil
}

// Verify checks sig over msg under this public key.
func (p PublicKey) Verify(msg, sig []byte) error {
	switch p.Alg {
	case AlgEd25519:
		if len(p.Raw) != ed25519.PublicKeySize {
			return errors.New("gridcrypto: malformed ed25519 public key")
		}
		if !ed25519.Verify(ed25519.PublicKey(p.Raw), msg, sig) {
			return ErrBadSignature
		}
		return nil
	case AlgECDSAP256:
		pub, err := unmarshalP256(p.Raw)
		if err != nil {
			return err
		}
		digest := sha256.Sum256(msg)
		if !ecdsa.VerifyASN1(pub, digest[:], sig) {
			return ErrBadSignature
		}
		return nil
	default:
		return ErrUnknownAlgorithm
	}
}

// KeyPair is a private key together with its public half.
type KeyPair struct {
	pub  PublicKey
	priv crypto.Signer
}

// GenerateKeyPair creates a fresh key pair for the given algorithm.
func GenerateKeyPair(alg Algorithm) (*KeyPair, error) {
	switch alg {
	case AlgEd25519:
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("gridcrypto: generating ed25519 key: %w", err)
		}
		return &KeyPair{
			pub:  PublicKey{Alg: AlgEd25519, Raw: append([]byte(nil), pub...)},
			priv: priv,
		}, nil
	case AlgECDSAP256:
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("gridcrypto: generating ecdsa key: %w", err)
		}
		raw := marshalP256(&priv.PublicKey)
		return &KeyPair{
			pub:  PublicKey{Alg: AlgECDSAP256, Raw: raw},
			priv: priv,
		}, nil
	default:
		return nil, ErrUnknownAlgorithm
	}
}

// Public returns the public half of the key pair.
func (k *KeyPair) Public() PublicKey { return k.pub }

// Algorithm returns the signature algorithm of the pair.
func (k *KeyPair) Algorithm() Algorithm { return k.pub.Alg }

// Sign produces a signature over msg. For Ed25519 the message is signed
// directly; for ECDSA it is hashed with SHA-256 first.
func (k *KeyPair) Sign(msg []byte) ([]byte, error) {
	switch k.pub.Alg {
	case AlgEd25519:
		return k.priv.Sign(rand.Reader, msg, crypto.Hash(0))
	case AlgECDSAP256:
		digest := sha256.Sum256(msg)
		return k.priv.Sign(rand.Reader, digest[:], crypto.SHA256)
	default:
		return nil, ErrUnknownAlgorithm
	}
}

// Encode serializes the key pair, private half included: one algorithm
// byte followed by the private scalar (Ed25519 seed, or the P-256 D
// scalar left-padded to 32 bytes) — the public half is recomputed on
// decode, so a corrupted file cannot present key A's public half over
// key B's private one. This is credential material: callers own keeping
// the bytes out of logs and world-readable files (gsictl writes them
// 0600).
func (k *KeyPair) Encode() ([]byte, error) {
	switch k.pub.Alg {
	case AlgEd25519:
		priv := k.priv.(ed25519.PrivateKey)
		return append([]byte{byte(AlgEd25519)}, priv.Seed()...), nil
	case AlgECDSAP256:
		priv := k.priv.(*ecdsa.PrivateKey)
		out := make([]byte, 33)
		out[0] = byte(AlgECDSAP256)
		priv.D.FillBytes(out[1:])
		return out, nil
	default:
		return nil, ErrUnknownAlgorithm
	}
}

// DecodeKeyPair reverses KeyPair.Encode, rederiving the public half
// from the private scalar.
func DecodeKeyPair(b []byte) (*KeyPair, error) {
	if len(b) < 1 {
		return nil, errors.New("gridcrypto: empty key pair encoding")
	}
	switch Algorithm(b[0]) {
	case AlgEd25519:
		if len(b) != 1+ed25519.SeedSize {
			return nil, fmt.Errorf("gridcrypto: ed25519 key pair encoding is %d bytes, want %d", len(b), 1+ed25519.SeedSize)
		}
		priv := ed25519.NewKeyFromSeed(b[1:])
		pub := priv.Public().(ed25519.PublicKey)
		return &KeyPair{
			pub:  PublicKey{Alg: AlgEd25519, Raw: append([]byte(nil), pub...)},
			priv: priv,
		}, nil
	case AlgECDSAP256:
		if len(b) != 33 {
			return nil, fmt.Errorf("gridcrypto: P-256 key pair encoding is %d bytes, want 33", len(b))
		}
		d := new(big.Int).SetBytes(b[1:])
		curve := elliptic.P256()
		if d.Sign() <= 0 || d.Cmp(curve.Params().N) >= 0 {
			return nil, errors.New("gridcrypto: P-256 private scalar out of range")
		}
		priv := &ecdsa.PrivateKey{D: d}
		priv.Curve = curve
		priv.X, priv.Y = curve.ScalarBaseMult(b[1:])
		return &KeyPair{
			pub:  PublicKey{Alg: AlgECDSAP256, Raw: marshalP256(&priv.PublicKey)},
			priv: priv,
		}, nil
	default:
		return nil, ErrUnknownAlgorithm
	}
}

// marshalP256 encodes a P-256 public key as an uncompressed point.
func marshalP256(pub *ecdsa.PublicKey) []byte {
	// Uncompressed point encoding: 0x04 || X || Y, 32 bytes each.
	out := make([]byte, 65)
	out[0] = 4
	pub.X.FillBytes(out[1:33])
	pub.Y.FillBytes(out[33:65])
	return out
}

// unmarshalP256 decodes an uncompressed P-256 point.
func unmarshalP256(raw []byte) (*ecdsa.PublicKey, error) {
	if len(raw) != 65 || raw[0] != 4 {
		return nil, errors.New("gridcrypto: malformed P-256 point")
	}
	x := new(big.Int).SetBytes(raw[1:33])
	y := new(big.Int).SetBytes(raw[33:65])
	if !elliptic.P256().IsOnCurve(x, y) {
		return nil, errors.New("gridcrypto: point not on P-256 curve")
	}
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, nil
}
