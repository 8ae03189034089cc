package gridcrypto

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func TestGenerateSignVerify(t *testing.T) {
	for _, alg := range []Algorithm{AlgEd25519, AlgECDSAP256} {
		t.Run(alg.String(), func(t *testing.T) {
			kp, err := GenerateKeyPair(alg)
			if err != nil {
				t.Fatalf("GenerateKeyPair: %v", err)
			}
			msg := []byte("grid security infrastructure")
			sig, err := kp.Sign(msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if err := kp.Public().Verify(msg, sig); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if err := kp.Public().Verify([]byte("tampered"), sig); err == nil {
				t.Fatal("Verify accepted tampered message")
			}
			sig[0] ^= 0x80
			if err := kp.Public().Verify(msg, sig); err == nil {
				t.Fatal("Verify accepted corrupted signature")
			}
		})
	}
}

func TestGenerateUnknownAlgorithm(t *testing.T) {
	if _, err := GenerateKeyPair(Algorithm(99)); err != ErrUnknownAlgorithm {
		t.Fatalf("want ErrUnknownAlgorithm, got %v", err)
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	for _, alg := range []Algorithm{AlgEd25519, AlgECDSAP256} {
		kp, err := GenerateKeyPair(alg)
		if err != nil {
			t.Fatal(err)
		}
		enc := kp.Public().Encode()
		dec, err := DecodePublicKey(enc)
		if err != nil {
			t.Fatalf("%s: DecodePublicKey: %v", alg, err)
		}
		if !dec.Equal(kp.Public()) {
			t.Fatalf("%s: round trip mismatch", alg)
		}
	}
}

func TestDecodePublicKeyRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{byte(AlgEd25519)},
		{byte(AlgEd25519), 1, 2, 3},
		{byte(AlgECDSAP256), 4, 0, 0},
		{99, 1, 2, 3, 4},
		append([]byte{byte(AlgECDSAP256)}, bytes.Repeat([]byte{0xff}, 65)...), // not on curve
	}
	for i, c := range cases {
		if _, err := DecodePublicKey(c); err == nil {
			t.Errorf("case %d: DecodePublicKey accepted garbage %x", i, c)
		}
	}
}

func TestCrossAlgorithmVerifyFails(t *testing.T) {
	ed, _ := GenerateKeyPair(AlgEd25519)
	ec, _ := GenerateKeyPair(AlgECDSAP256)
	msg := []byte("msg")
	sig, _ := ed.Sign(msg)
	if err := ec.Public().Verify(msg, sig); err == nil {
		t.Fatal("ECDSA key verified an Ed25519 signature")
	}
}

func TestHKDFKnownProperties(t *testing.T) {
	secret := []byte("shared secret")
	salt := []byte("salt")
	k1, err := DeriveKey(secret, salt, []byte("client write"), 32)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := DeriveKey(secret, salt, []byte("server write"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("different info produced identical keys")
	}
	k1b, _ := DeriveKey(secret, salt, []byte("client write"), 32)
	if !bytes.Equal(k1, k1b) {
		t.Fatal("HKDF not deterministic")
	}
	long, err := DeriveKey(secret, salt, []byte("x"), 100)
	if err != nil || len(long) != 100 {
		t.Fatalf("long derivation: len=%d err=%v", len(long), err)
	}
}

func TestHKDFExpandBounds(t *testing.T) {
	prk := HKDFExtract(nil, []byte("ikm"))
	if _, err := HKDFExpand(prk, nil, 0); err == nil {
		t.Fatal("accepted zero length")
	}
	if _, err := HKDFExpand(prk, nil, 255*sha256.Size+1); err == nil {
		t.Fatal("accepted over-long output")
	}
}

func TestECDHAgreement(t *testing.T) {
	a, err := GenerateECDH()
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateECDH()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.SharedSecret(b.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SharedSecret(a.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("ECDH shared secrets differ")
	}
	if _, err := a.SharedSecret([]byte("short")); err == nil {
		t.Fatal("accepted malformed peer share")
	}
}

func TestSealerOpenerOrdering(t *testing.T) {
	key := bytes.Repeat([]byte{7}, AEADKeySize)
	s, err := NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOpener(key)
	if err != nil {
		t.Fatal(err)
	}
	var records []struct {
		seq uint64
		ct  []byte
	}
	for i := 0; i < 5; i++ {
		seq, ct, err := s.Seal([]byte{byte(i)}, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
		records = append(records, struct {
			seq uint64
			ct  []byte
		}{seq, ct})
	}
	for i, r := range records {
		pt, err := o.Open(r.seq, r.ct, []byte("aad"))
		if err != nil {
			t.Fatalf("Open record %d: %v", i, err)
		}
		if len(pt) != 1 || pt[0] != byte(i) {
			t.Fatalf("record %d decrypted to %x", i, pt)
		}
	}
	// Replay of the last record must fail.
	if _, err := o.Open(records[4].seq, records[4].ct, []byte("aad")); err == nil {
		t.Fatal("replay accepted")
	}
}

func TestOpenerRejectsWrongAAD(t *testing.T) {
	key := bytes.Repeat([]byte{9}, AEADKeySize)
	s, _ := NewSealer(key)
	o, _ := NewOpener(key)
	seq, ct, _ := s.Seal([]byte("payload"), []byte("context-A"))
	if _, err := o.Open(seq, ct, []byte("context-B")); err == nil {
		t.Fatal("wrong AAD accepted")
	}
}

func TestSealerRejectsBadKeySize(t *testing.T) {
	if _, err := NewSealer([]byte("short")); err == nil {
		t.Fatal("accepted short key")
	}
	if _, err := NewOpener(bytes.Repeat([]byte{1}, 16)); err == nil {
		t.Fatal("accepted 16-byte key (must be 32)")
	}
}

func TestRandomSerialPositive(t *testing.T) {
	for i := 0; i < 100; i++ {
		s, err := RandomSerial()
		if err != nil {
			t.Fatal(err)
		}
		if s == 0 || s >= 1<<63 {
			t.Fatalf("serial out of range: %d", s)
		}
	}
}

func TestHMACHelpers(t *testing.T) {
	tag := HMACSHA256([]byte("k"), []byte("m"))
	if !HMACEqual(tag, HMACSHA256([]byte("k"), []byte("m"))) {
		t.Fatal("HMAC not deterministic")
	}
	if HMACEqual(tag, HMACSHA256([]byte("k2"), []byte("m"))) {
		t.Fatal("different keys produced equal MACs")
	}
}

// Property: HKDF output differs whenever info differs.
func TestPropertyHKDFInfoSeparation(t *testing.T) {
	secret := []byte("property secret")
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ka, err1 := DeriveKey(secret, nil, a, 32)
		kb, err2 := DeriveKey(secret, nil, b, 32)
		return err1 == nil && err2 == nil && !bytes.Equal(ka, kb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySignVerifyEd25519(t *testing.T) {
	kp, err := GenerateKeyPair(AlgEd25519)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		sig, err := kp.Sign(msg)
		if err != nil {
			return false
		}
		return kp.Public().Verify(msg, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKeyGenEd25519(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKeyPair(AlgEd25519); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeyGenECDSAP256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateKeyPair(AlgECDSAP256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignVerifyEd25519(b *testing.B) {
	kp, _ := GenerateKeyPair(AlgEd25519)
	msg := bytes.Repeat([]byte{1}, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, _ := kp.Sign(msg)
		if err := kp.Public().Verify(msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}
