package gridcrypto

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/israce"
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
	keys := HKDFKeys(salt, secret, [][]byte{[]byte("client write"), []byte("server write")})
	k1, k2 := keys[:sha256.Size], keys[sha256.Size:]
	if bytes.Equal(k1, k2) {
		t.Fatal("different info produced identical keys")
	}
	k1b := HKDFKeys(salt, secret, [][]byte{[]byte("client write")})
	if !bytes.Equal(k1, k1b) {
		t.Fatal("HKDF not deterministic")
	}
}

// TestHKDFExpandBounds: HKDFKeys expands no further than the first
// block — each key is exactly T(1) = HMAC(PRK, info || 0x01), empty and
// block-sized infos included — and no infos give no bytes.
func TestHKDFExpandBounds(t *testing.T) {
	salt, ikm := []byte("salt"), []byte("ikm")
	infos := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{7}, sha256.BlockSize)}
	keys := HKDFKeys(salt, ikm, infos)
	if len(keys) != len(infos)*sha256.Size {
		t.Fatalf("HKDFKeys returned %d bytes for %d infos", len(keys), len(infos))
	}
	prk := HKDFExtract(salt, ikm)
	for i, info := range infos {
		t1 := HMACSHA256(prk[:], info, []byte{1})
		if !bytes.Equal(keys[i*sha256.Size:(i+1)*sha256.Size], t1[:]) {
			t.Fatalf("key %d is not T(1) of its info", i)
		}
	}
	if got := HKDFKeys(salt, ikm, nil); len(got) != 0 {
		t.Fatalf("no infos gave %d bytes", len(got))
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
	tag, again, other := HMACSHA256([]byte("k"), []byte("m")), HMACSHA256([]byte("k"), []byte("m")), HMACSHA256([]byte("k2"), []byte("m"))
	if !HMACEqual(tag[:], again[:]) {
		t.Fatal("HMAC not deterministic")
	}
	if HMACEqual(tag[:], other[:]) {
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
		keys := HKDFKeys(nil, secret, [][]byte{a, b})
		return !bytes.Equal(keys[:sha256.Size], keys[sha256.Size:])
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

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHMACKnownAnswer is RFC 4231's HMAC-SHA-256 test cases 1-4, 6 and
// 7: keys shorter than, and (6, 7) longer than, the block, which are
// hashed first; data shorter and longer than a block. (Case 5 is a
// truncated output.)
func TestHMACKnownAnswer(t *testing.T) {
	aa := bytes.Repeat([]byte{0xaa}, 131)
	for _, tc := range []struct {
		name      string
		key, data []byte
		want      string
	}{
		{"1", bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{"2", []byte("Jefe"), []byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{"3", aa[:20], bytes.Repeat([]byte{0xdd}, 50),
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
		{"4", unhex(t, "0102030405060708090a0b0c0d0e0f10111213141516171819"), bytes.Repeat([]byte{0xcd}, 50),
			"82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
		{"6", aa, []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
		{"7", aa, []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."),
			"9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
	} {
		if mac := HMACSHA256(tc.key, tc.data); hex.EncodeToString(mac[:]) != tc.want {
			t.Errorf("RFC 4231 case %s: %x, want %s", tc.name, mac, tc.want)
		}
	}
}

// TestKeyScheduleAllocs: HMAC and HKDF extract allocate nothing, and a
// four-key schedule allocates its keys, once.
func TestKeyScheduleAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	key, msg := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 200)
	infos := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	for _, tc := range []struct {
		name string
		want float64
		run  func()
	}{
		{"HMACSHA256", 0, func() { HMACSHA256(key, msg) }},
		{"HKDFExtract", 0, func() { HKDFExtract(key, msg) }},
		{"HKDFKeys", 1, func() { HKDFKeys(key, msg, infos) }},
	} {
		if got := testing.AllocsPerRun(100, tc.run); got > tc.want {
			t.Errorf("%s allocates %.0f, want <= %.0f", tc.name, got, tc.want)
		}
	}
}

// TestHKDFKnownAnswer is RFC 5869's test cases A.1 and A.3 (SHA-256;
// A.3 has an empty salt and info). HKDFKeys's key for an info is the
// first 32 bytes of the case's 42-byte output.
func TestHKDFKnownAnswer(t *testing.T) {
	noSalt := HKDFExtract(nil, bytes.Repeat([]byte{0x0b}, 22))
	if got := hex.EncodeToString(noSalt[:]); got != "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04" {
		t.Fatalf("A.3 PRK = %s", got)
	}
	okm3 := HKDFKeys(nil, bytes.Repeat([]byte{0x0b}, 22), [][]byte{nil})
	if got := hex.EncodeToString(okm3); got != "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"[:64] {
		t.Fatalf("A.3 OKM = %s", got)
	}

	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := unhex(t, "000102030405060708090a0b0c")
	info := unhex(t, "f0f1f2f3f4f5f6f7f8f9")
	wantPRK := "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
	wantOKM := "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"

	prk := HKDFExtract(salt, ikm)
	if got := hex.EncodeToString(prk[:]); got != wantPRK {
		t.Fatalf("PRK = %s, want %s", got, wantPRK)
	}
	keys := HKDFKeys(salt, ikm, [][]byte{info, []byte("other"), info})
	if len(keys) != 3*sha256.Size {
		t.Fatalf("HKDFKeys returned %d bytes, want %d", len(keys), 3*sha256.Size)
	}
	if got := hex.EncodeToString(keys[:32]); got != wantOKM[:64] {
		t.Fatalf("HKDFKeys first key = %s, want %s", got, wantOKM[:64])
	}
	if !bytes.Equal(keys[64:], keys[:32]) || bytes.Equal(keys[32:64], keys[:32]) {
		t.Fatal("HKDFKeys: a key depends on another info than its own")
	}
}
