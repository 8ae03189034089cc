package gss

import (
	"encoding/hex"
	"testing"
	"time"
)

// seq returns n bytes counting up from start.
func seq(n int, start byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = start + byte(i)
	}
	return b
}

// Golden key schedules for fixed inputs, computed by the per-key HKDF
// expands (one HMAC keyed per key) that deriveKeys replaced: the
// schedule's one keyed HMAC must change no key.
var (
	goldenHandshake = [4]string{
		"976a70bc6221328b848746dd4e64ed9a09a38b64480c566f2d5ef0bef018ca59",
		"2f4eac26a64b1cf9272fd3266195b41546733ef211f6577f96011301efa353b4",
		"8d74c3d894467eba40d82602945c668718eb76495ace3a4f438c22c6880cf563",
		"e485b3d772cb7d72344281bc281618902982f847be4460657f14bc04e685c999",
	}
	goldenResume = [4]string{
		"80b96a2894cb805b9c35c3814a52d017bfabf481345172c1a8e06426a83742c2",
		"e2691373ebf70c1193625a01b5024802efbf631821727d88ed741c92f13457e6",
		"81a4547141f48a446464b0bf92f9079e7d1291e986a9a70dcd8f22c38395a854",
		"c7f8e7e5efa52129fcc5f1e6dd7ecdeab270f2a11165572af72f04e7e91425f8",
	}
)

func checkSchedule(t *testing.T, what string, ks keySchedule, want [4]string) {
	t.Helper()
	for i, k := range [][]byte{ks.initWrite, ks.acceptWrite, ks.initFin, ks.acceptFin} {
		if got := hex.EncodeToString(k); got != want[i] {
			t.Errorf("%s key %d = %s, want %s", what, i, got, want[i])
		}
	}
}

// TestKeyScheduleGolden: a full handshake's schedule (salted with the
// transcript hash, keyed by the ECDH secret) and a resumption's (salted
// with both nonces, keyed by the parent's finished keys) match the
// goldens — directly, and through Context.Resume for either orientation.
func TestKeyScheduleGolden(t *testing.T) {
	full := deriveKeys(seq(32, 0x80), seq(32, 0x10), handshakeLabels)
	checkSchedule(t, "handshake", full, goldenHandshake)

	clientNonce, serverNonce := seq(ResumeNonceSize, 0x40), seq(ResumeNonceSize, 0xc0)
	salt := append(append([]byte(nil), clientNonce...), serverNonce...)
	ikm := append(append([]byte(nil), full.initFin...), full.acceptFin...)
	checkSchedule(t, "resume", deriveKeys(salt, ikm, resumeLabels), goldenResume)

	for _, initiator := range []bool{true, false} {
		mic, vfy := full.initFin, full.acceptFin
		wantMIC, wantVfy := goldenResume[2], goldenResume[3]
		if !initiator {
			mic, vfy = vfy, mic
			wantMIC, wantVfy = wantVfy, wantMIC
		}
		parent := &Context{initiator: initiator, micKey: mic, vfyKey: vfy,
			expiry: time.Now().Add(time.Hour), now: time.Now}
		child, err := parent.Resume(clientNonce, serverNonce)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(child.micKey) != wantMIC || hex.EncodeToString(child.vfyKey) != wantVfy {
			t.Errorf("initiator=%v: resumed MIC keys differ from the golden schedule", initiator)
		}
	}
}
