package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/sha256"
	"sort"
	"time"
)

// The speed reference. The box this benchmark runs on drifts over
// seconds and minutes (the same binary's CPU time per exchange moved
// 9.3 -> 13.2 us in one sitting), so a fixed amount of standard-library
// work runs inside every timed slice and around every set-up, and
// time-based metrics are reported at the speed the reference ran at.
// The kernel never calls repo code: an optimisation of the program must
// not move the yardstick.

// refNominalMS is what one reference unit typically takes inside a
// slice on the box the benchmark was defined on (slice means of
// 1.9-2.2 ms; the same unit alone in a tight loop has been seen at
// 1.5 ms for seconds at a time, and at 1.9 ms for minutes). It only
// fixes the scale of the corrected numbers; a slice's factor is
// refNominalMS / measured.
const refNominalMS = 2.0

// refUnits is how many units one measurement around a set-up runs
// (~10 ms in all); the measurement is their median, so one preempted
// unit does not move it.
const refUnits = 5

type refKernel struct {
	priv   ed25519.PrivateKey
	pub    ed25519.PublicKey
	aead   cipher.AEAD
	nonce  []byte
	plain  []byte
	sealed []byte
	sum    byte
}

func newRefKernel() *refKernel {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(i*7 + 1)
	}
	priv := ed25519.NewKeyFromSeed(seed)
	key := sha256.Sum256(seed)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 32-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	plain := make([]byte, 16<<10)
	for i := range plain {
		plain[i] = byte(i)
	}
	return &refKernel{
		priv:   priv,
		pub:    priv.Public().(ed25519.PublicKey),
		aead:   aead,
		nonce:  make([]byte, aead.NonceSize()),
		plain:  plain,
		sealed: make([]byte, 0, len(plain)+aead.Overhead()),
	}
}

// unit is the fixed work: public-key sign+verify, AEAD over 16 KiB and
// SHA-256, in roughly the proportions the secured paths spend them. It
// allocates nothing beyond Ed25519's signatures, so running it inside a
// timed slice does not disturb that slice's allocation counts by more
// than sixteen objects.
func (k *refKernel) unit() {
	msg := k.plain[:256]
	for i := 0; i < 16; i++ {
		sig := ed25519.Sign(k.priv, msg)
		if !ed25519.Verify(k.pub, msg, sig) {
			panic("reference kernel: signature did not verify")
		}
		k.sum ^= sig[0]
	}
	for i := 0; i < 120; i++ {
		k.sealed = k.aead.Seal(k.sealed[:0], k.nonce, k.plain, nil)
		k.sum ^= k.sealed[i]
	}
	for i := 0; i < 40; i++ {
		d := sha256.Sum256(k.plain)
		k.sum ^= d[0]
	}
}

// measure runs the reference and returns the median unit time in
// milliseconds.
func (k *refKernel) measure() float64 {
	var ms [refUnits]float64
	for i := range ms {
		t0 := time.Now()
		k.unit()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	sort.Float64s(ms[:])
	return ms[refUnits/2]
}
