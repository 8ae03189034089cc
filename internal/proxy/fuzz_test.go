package proxy

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
	"repro/internal/gridcrypto"
)

// Round-trip invariants for the delegation wire format, the two
// messages the online delegation endpoint accepts from the network: a
// decoder must never panic on arbitrary bytes, and anything it accepts
// must re-encode to a value that decodes back equal (encode∘decode is
// the identity on the accepted set).

func FuzzDecodeDelegationRequest(f *testing.F) {
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		f.Fatal(err)
	}
	seedReq := DelegationRequest{PublicKey: key.Public(), Lifetime: time.Hour, Limited: true}
	f.Add(seedReq.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeDelegationRequest(data)
		if err != nil {
			return
		}
		if req.Lifetime < 0 {
			t.Fatalf("accepted negative lifetime %v", req.Lifetime)
		}
		enc := req.Encode()
		again, err := DecodeDelegationRequest(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if !bytes.Equal(again.PublicKey.Encode(), req.PublicKey.Encode()) ||
			again.Lifetime != req.Lifetime || again.Limited != req.Limited {
			t.Fatalf("round trip diverged: %+v vs %+v", req, again)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("re-encode is not canonical")
		}
	})
}

func FuzzDecodeDelegationReply(f *testing.F) {
	// Seed with a genuine reply: CA → user → delegated proxy.
	signer := fuzzSigner(f)
	key, err := gridcrypto.GenerateKeyPair(gridcrypto.AlgEd25519)
	if err != nil {
		f.Fatal(err)
	}
	reply, err := HandleDelegation(signer, DelegationRequest{PublicKey: key.Public()}, Options{Lifetime: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reply.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(bytes.Repeat([]byte{0x41}, 128))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeDelegationReply(data)
		if err != nil {
			return
		}
		if r.ProxyCert == nil {
			t.Fatal("accepted reply with nil proxy certificate")
		}
		enc := r.Encode()
		again, err := DecodeDelegationReply(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted reply failed: %v", err)
		}
		if !bytes.Equal(again.ProxyCert.Encode(), r.ProxyCert.Encode()) {
			t.Fatal("proxy certificate did not round-trip")
		}
		if len(again.SignerChain) != len(r.SignerChain) {
			t.Fatalf("chain length diverged: %d vs %d", len(again.SignerChain), len(r.SignerChain))
		}
		for i := range r.SignerChain {
			if !bytes.Equal(again.SignerChain[i].Encode(), r.SignerChain[i].Encode()) {
				t.Fatalf("chain[%d] did not round-trip", i)
			}
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("re-encode is not canonical")
		}
	})
}

// fuzzSigner builds a minimal credential able to sign proxies.
func fuzzSigner(f *testing.F) *gridcert.Credential {
	f.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Grid/CN=Fuzz CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		f.Fatal(err)
	}
	cred, err := auth.NewEntity(gridcert.MustParseName("/O=Grid/CN=Fuzz User"), 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	return cred
}
