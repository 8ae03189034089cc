package cas

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ca"
	"repro/internal/gridcert"
)

// FuzzPolicyBundleDecode feeds arbitrary bytes to the bundle decoder
// and a live replica. Torn, truncated, or bit-flipped bundles must
// error — and, critically, must never move the replica: no partial
// state, no version or generation movement, fail closed throughout.
func FuzzPolicyBundleDecode(f *testing.F) {
	auth, err := ca.New(gridcert.MustParseName("/O=Fuzz/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		f.Fatal(err)
	}
	voCred, err := auth.NewEntity(gridcert.MustParseName("/O=Fuzz/CN=VO"), 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	server := NewServer(voCred)
	server.AddMember(gridcert.MustParseName("/O=Fuzz/CN=Member"), "g")
	good, err := server.ExportBundle()
	if err != nil {
		f.Fatal(err)
	}
	valid := good.Encode()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		// Decoded cleanly: re-encode must round-trip byte-identically —
		// a decoder that accepts two spellings of one bundle is a
		// signature-confusion hazard. The re-encoding is of the decoded
		// fields (a copy without the kept bytes), so it tests the decoder.
		fields := *b
		fields.signed = nil
		if !bytes.Equal(fields.Encode(), data) {
			t.Fatalf("decode/encode not canonical for %d-byte input", len(data))
		}
		r := NewReplica(voCred.Leaf())
		if err := r.Apply(good); err != nil {
			t.Fatal(err)
		}
		verBefore, genBefore := r.Version(), r.Generation()
		if err := r.Apply(b); err != nil {
			// Rejected: the replica must be exactly where it was.
			if r.Version() != verBefore || r.Generation() != genBefore {
				t.Fatal("rejected bundle moved the replica")
			}
			return
		}
		// The only bundle the fuzzer can produce that verifies under the
		// VO key is the genuine one (same version → no-op apply).
		if r.Version() != verBefore || r.Generation() != genBefore {
			t.Fatal("fuzzed bundle passed signature verification with new state")
		}
	})
}

// deltaFuzzWorld builds the shared fixture for the delta fuzzers: a VO
// server, the base bundle a replica would have synced, and a genuine
// signed delta covering the mutations since.
func deltaFuzzWorld(f *testing.F) (voCred *gridcert.Credential, base *Bundle, delta *Delta) {
	f.Helper()
	auth, err := ca.New(gridcert.MustParseName("/O=Fuzz/CN=CA"), 24*time.Hour, ca.DefaultPolicy())
	if err != nil {
		f.Fatal(err)
	}
	voCred, err = auth.NewEntity(gridcert.MustParseName("/O=Fuzz/CN=VO"), 12*time.Hour)
	if err != nil {
		f.Fatal(err)
	}
	server := NewServer(voCred)
	server.AddMember(gridcert.MustParseName("/O=Fuzz/CN=Member"), "g")
	base, err = server.ExportBundle()
	if err != nil {
		f.Fatal(err)
	}
	from := server.Version()
	server.AddMember(gridcert.MustParseName("/O=Fuzz/CN=Joiner"), "g", "h")
	server.AssignRole(gridcert.MustParseName("/O=Fuzz/CN=Joiner"), "admin")
	server.RemoveMember(gridcert.MustParseName("/O=Fuzz/CN=Member"))
	delta, err = server.ExportDelta(from)
	if err != nil {
		f.Fatal(err)
	}
	return voCred, base, delta
}

// FuzzDeltaBundleDecode feeds arbitrary bytes to the delta decoder.
// Torn, truncated, or bit-flipped deltas must error rather than panic,
// and anything that decodes must re-encode byte-identically — a decoder
// that accepts two spellings of one delta is a signature-confusion
// hazard, exactly as for full bundles.
func FuzzDeltaBundleDecode(f *testing.F) {
	_, _, delta := deltaFuzzWorld(f)
	valid := delta.Encode()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		if !bytes.Equal(d.Encode(), data) {
			t.Fatalf("decode/encode not canonical for %d-byte input", len(data))
		}
		if d.ToVersion < d.FromVersion {
			t.Fatal("decoder accepted a version-regressing delta")
		}
		if uint64(len(d.Ops)) != d.ToVersion-d.FromVersion {
			t.Fatal("decoder accepted an op count that does not match the version span")
		}
	})
}

// FuzzDeltaApply drives decoded fuzz deltas into a live replica. Every
// outcome must fail closed: a rejected delta leaves version, generation,
// and membership exactly where they were; the only delta that can apply
// is the genuine signed one, it must land exactly at its ToVersion, and
// replaying it must be refused without movement.
func FuzzDeltaApply(f *testing.F) {
	voCred, base, delta := deltaFuzzWorld(f)
	valid := delta.Encode()

	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	sigFlipped := append([]byte(nil), valid...)
	sigFlipped[len(sigFlipped)-1] ^= 0x80
	f.Add(sigFlipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		r := NewReplica(voCred.Leaf())
		if err := r.Apply(base); err != nil {
			t.Fatal(err)
		}
		member := gridcert.MustParseName("/O=Fuzz/CN=Member")
		verBefore, genBefore := r.Version(), r.Generation()
		_, _, memberBefore := r.Lookup(member)
		if err := r.ApplyDelta(d); err != nil {
			if r.Version() != verBefore || r.Generation() != genBefore {
				t.Fatal("rejected delta moved the replica")
			}
			if _, _, ok := r.Lookup(member); ok != memberBefore {
				t.Fatal("rejected delta changed membership")
			}
			return
		}
		// Applied: only a genuinely signed delta can get here, and it must
		// land exactly on its ToVersion — never behind, never past.
		if r.Version() != d.ToVersion || r.Version() <= verBefore {
			t.Fatalf("applied delta left replica at %d (delta to %d, was %d)", r.Version(), d.ToVersion, verBefore)
		}
		if r.Generation() == genBefore {
			t.Fatal("applied delta did not refresh the generation")
		}
		// Replay must be refused as stale without moving anything.
		ver, gen := r.Version(), r.Generation()
		if err := r.ApplyDelta(d); err == nil {
			t.Fatal("replayed delta applied twice")
		}
		if r.Version() != ver || r.Generation() != gen {
			t.Fatal("refused replay moved the replica")
		}
	})
}

// FuzzSyncReplyDecode feeds arbitrary bytes to the one decoder of the
// sync port type. It must never panic; whatever decodes is exactly one
// document whose tag-plus-Encode() spelling is the input (so trailing
// bytes and second spellings are refused), and any other tag errors.
func FuzzSyncReplyDecode(f *testing.F) {
	_, base, delta := deltaFuzzWorld(f)
	full := encodeSyncReply(syncTagFull, base.tbs(), base.Signature)
	inc := encodeSyncReply(syncTagDelta, delta.tbs(), delta.Signature)

	f.Add(full)
	f.Add(inc)
	f.Add(append(append([]byte(nil), inc...), 0))
	f.Add(append([]byte{syncTagFull}, inc[1:]...))
	f.Add(append([]byte{9}, full[1:]...))
	f.Add(inc[:len(inc)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, b, err := DecodeSyncReply(data)
		if err != nil {
			if d != nil || b != nil {
				t.Fatal("failed decode returned a document")
			}
			return
		}
		var respelled []byte
		switch {
		case d != nil && b == nil && data[0] == syncTagDelta:
			respelled = d.Encode()
		case b != nil && d == nil && data[0] == syncTagFull:
			respelled = b.Encode()
		default:
			t.Fatalf("tag %d decoded to delta=%v bundle=%v", data[0], d != nil, b != nil)
		}
		if !bytes.Equal(respelled, data[1:]) {
			t.Fatalf("decode/encode not canonical for %d-byte input", len(data))
		}
	})
}
