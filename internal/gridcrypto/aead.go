package gridcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// AEADKeySize is the AES-256 key length used for all symmetric protection.
const AEADKeySize = 32

// ErrSealOverflow is returned when a Sealer's nonce counter would wrap.
var ErrSealOverflow = errors.New("gridcrypto: sealer nonce counter exhausted")

// ErrOpenFailed is returned when AEAD authentication fails.
var ErrOpenFailed = errors.New("gridcrypto: AEAD open failed")

// Sealer provides ordered authenticated encryption with a deterministic
// 64-bit counter nonce, as used for record protection in a security
// context. A Sealer must only be used by one direction of a connection;
// each side of a context derives its own sending key.
type Sealer struct {
	mu    sync.Mutex
	aead  cipher.AEAD
	seq   uint64
	nonce [12]byte // scratch, guarded by mu (a stack nonce would escape through the AEAD interface)
}

// NewSealer builds a Sealer over AES-256-GCM with the given key.
func NewSealer(key []byte) (*Sealer, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	return &Sealer{aead: aead}, nil
}

// SealOverhead is the per-record ciphertext expansion (the GCM tag).
const SealOverhead = 16

// Seal encrypts plaintext with associated data aad and returns the
// sequence number used together with the ciphertext. Sequence numbers
// start at zero and increase by one per call.
func (s *Sealer) Seal(plaintext, aad []byte) (seq uint64, ciphertext []byte, err error) {
	return s.SealInto(nil, plaintext, aad)
}

// SealInto is Seal appending the ciphertext to dst instead of a fresh
// allocation. Pass dst = plaintext[:0] to encrypt in place (the caller's
// buffer then holds ciphertext||tag, needing SealOverhead spare
// capacity to avoid growing); any other overlap between dst's spare
// capacity and plaintext is the caller's bug, per crypto/cipher.
func (s *Sealer) SealInto(dst, plaintext, aad []byte) (seq uint64, ciphertext []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq == ^uint64(0) {
		return 0, nil, ErrSealOverflow
	}
	seq = s.seq
	s.seq++
	binary.BigEndian.PutUint64(s.nonce[4:], seq)
	ciphertext = s.aead.Seal(dst, s.nonce[:], plaintext, aad)
	return seq, ciphertext, nil
}

// Reserve claims the next sequence number without sealing anything.
// It is the pipelined-seal entry point: a submitter reserves sequence
// numbers in submission order, then worker goroutines seal concurrently
// with SealAtInto — submission order fixes wire order regardless of
// which worker finishes first.
func (s *Sealer) Reserve() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq == ^uint64(0) {
		return 0, ErrSealOverflow
	}
	seq := s.seq
	s.seq++
	return seq, nil
}

// SealAtInto encrypts plaintext under an explicitly reserved sequence
// number. Unlike SealInto it takes no lock over the cipher: GCM's Seal
// is safe for concurrent use, and each call derives its nonce from its
// own seq, so any number of workers may seal reserved records in
// parallel. The caller must have obtained seq from Reserve (sealing the
// same seq twice reuses a GCM nonce — catastrophic — so reservations
// must be used exactly once). Its nonce escapes to the heap; SealAt
// takes the caller's.
func (s *Sealer) SealAtInto(seq uint64, dst, plaintext, aad []byte) []byte {
	var nonce [12]byte
	return s.SealAt(&nonce, seq, dst, plaintext, aad)
}

// SealAt is SealAtInto building the nonce in the caller's scratch,
// which must not be shared with a concurrent seal: a stack nonce would
// escape through the AEAD interface and cost an allocation per record.
func (s *Sealer) SealAt(nonce *[12]byte, seq uint64, dst, plaintext, aad []byte) []byte {
	*nonce = [12]byte{}
	binary.BigEndian.PutUint64(nonce[4:], seq)
	return s.aead.Seal(dst, nonce[:], plaintext, aad)
}

// Opener is the receiving half: it decrypts records sealed by the peer's
// Sealer, enforcing strictly increasing sequence numbers (anti-replay).
type Opener struct {
	mu    sync.Mutex
	aead  cipher.AEAD
	next  uint64
	nonce [12]byte // scratch, guarded by mu
}

// NewOpener builds an Opener over AES-256-GCM with the given key.
func NewOpener(key []byte) (*Opener, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	return &Opener{aead: aead}, nil
}

// Open decrypts a record produced with the given sequence number. Records
// must arrive in order; replayed or reordered sequence numbers are
// rejected before any cryptographic work.
func (o *Opener) Open(seq uint64, ciphertext, aad []byte) ([]byte, error) {
	return o.OpenInto(nil, seq, ciphertext, aad)
}

// OpenInto is Open appending the plaintext to dst. Pass dst =
// ciphertext[:0] to decrypt in place: the returned plaintext is then
// ciphertext[:len(ciphertext)-SealOverhead], and the record is consumed
// either way — on success the buffer holds plaintext, on failure its
// contents are undefined. Any other overlap between dst's spare
// capacity and ciphertext is the caller's bug, per crypto/cipher.
func (o *Opener) OpenInto(dst []byte, seq uint64, ciphertext, aad []byte) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if seq != o.next {
		return nil, fmt.Errorf("gridcrypto: record sequence %d, want %d (replay or reorder)", seq, o.next)
	}
	binary.BigEndian.PutUint64(o.nonce[4:], seq)
	plaintext, err := o.aead.Open(dst, o.nonce[:], ciphertext, aad)
	if err != nil {
		return nil, ErrOpenFailed
	}
	o.next++
	return plaintext, nil
}

// OpenAtInPlace decrypts a record under an explicit sequence number,
// the counterpart of SealAtInto. It takes no lock and does not move the
// anti-replay cursor: the caller owns ordering. The returned plaintext
// occupies the ciphertext's own storage (see OpenInto).
func (o *Opener) OpenAtInPlace(seq uint64, ciphertext, aad []byte) ([]byte, error) {
	var nonce [12]byte
	binary.BigEndian.PutUint64(nonce[4:], seq)
	plaintext, err := o.aead.Open(ciphertext[:0], nonce[:], ciphertext, aad)
	if err != nil {
		return nil, ErrOpenFailed
	}
	return plaintext, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != AEADKeySize {
		return nil, fmt.Errorf("gridcrypto: AEAD key must be %d bytes, got %d", AEADKeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}
