package gridcrypto

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
)

// HKDFExtract implements the extract step of HKDF (RFC 5869) with
// SHA-256. An empty salt is HashLen zeros, which pad to the same HMAC key.
func HKDFExtract(salt, ikm []byte) [sha256.Size]byte { return HMACSHA256(salt, ikm) }

// HKDFKeys is HKDF (RFC 5869) with SHA-256 for a key schedule: one
// extract from salt and ikm, then one sha256.Size-byte key per info,
// each the first expand block T(1) = HMAC(PRK, info || 0x01) — the
// first sha256.Size bytes of any longer expand. The keys come back
// concatenated in info order, the one allocation.
func HKDFKeys(salt, ikm []byte, infos [][]byte) []byte {
	prk := HKDFExtract(salt, ikm)
	out := make([]byte, 0, len(infos)*sha256.Size)
	for _, info := range infos {
		key := HMACSHA256(prk[:], info, firstBlock[:])
		out = append(out, key[:]...)
	}
	return out
}

// firstBlock is the counter byte of HKDF's first expand block.
var firstBlock = [1]byte{1}

// HMACSHA256 computes the HMAC-SHA256 (RFC 2104) tag of msg's parts,
// concatenated, under key, without a crypto/hmac (six allocations a
// call): the padded key is a stack array and both passes run through one
// local SHA-256 digest, which the compiler keeps on the stack too.
func HMACSHA256(key []byte, msg ...[]byte) (mac [sha256.Size]byte) {
	var pad [sha256.BlockSize]byte
	if len(key) > len(pad) {
		sum := sha256.Sum256(key)
		copy(pad[:], sum[:])
	} else {
		copy(pad[:], key)
	}
	for i := range pad {
		pad[i] ^= 0x36
	}
	h := sha256.New()
	h.Write(pad[:])
	for _, m := range msg {
		h.Write(m)
	}
	h.Sum(mac[:0])
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	h.Reset()
	h.Write(pad[:])
	h.Write(mac[:])
	h.Sum(mac[:0])
	return mac
}

// HMACEqual compares two MAC values in constant time.
func HMACEqual(a, b []byte) bool { return hmac.Equal(a, b) }

// ECDHKeyPair is an ephemeral X25519 key-agreement pair used during
// security-context establishment.
type ECDHKeyPair struct {
	priv *ecdh.PrivateKey
}

// GenerateECDH creates a fresh X25519 key pair.
func GenerateECDH() (*ECDHKeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gridcrypto: generating x25519 key: %w", err)
	}
	return &ECDHKeyPair{priv: priv}, nil
}

// PublicBytes returns the 32-byte public share to send to the peer.
func (e *ECDHKeyPair) PublicBytes() []byte { return e.priv.PublicKey().Bytes() }

// SharedSecret computes the shared secret with the peer's public share.
func (e *ECDHKeyPair) SharedSecret(peer []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peer)
	if err != nil {
		return nil, fmt.Errorf("gridcrypto: bad peer ECDH share: %w", err)
	}
	secret, err := e.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("gridcrypto: ECDH agreement: %w", err)
	}
	return secret, nil
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("gridcrypto: reading random bytes: %w", err)
	}
	return b, nil
}

// RandomSerial returns a positive random 63-bit serial number.
func RandomSerial() (uint64, error) {
	b, err := RandomBytes(8)
	if err != nil {
		return 0, err
	}
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	v &= 1<<63 - 1
	if v == 0 {
		v = 1
	}
	return v, nil
}
