package cas

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/israce"
	"repro/internal/wire"
)

// Tests for the publisher's one signature per version and the replica's
// one table build per full sync.

// fullPull is a version-0 Pull against svc, checked down to a bundle
// that verifies: the reply's document and its decoding.
func fullPull(t *testing.T, bed *voBed, svc *SyncService) ([]byte, *Bundle) {
	t.Helper()
	call := newSyncCall(SyncOpPull, bed, true, false)
	call.Body = []byte("0")
	reply, err := svc.Invoke(call)
	if err != nil {
		t.Fatal(err)
	}
	_, doc, err := DecodeSyncReply(reply)
	if err != nil || doc == nil {
		t.Fatalf("full pull: bundle %v, err %v", doc != nil, err)
	}
	b, err := DecodeBundle(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(bed.server.Certificate()); err != nil {
		t.Fatalf("pulled bundle at version %d: %v", b.Version, err)
	}
	return doc, b
}

// TestPullSignsEachVersionOnce: two full pulls at one version, 10 s
// apart on the VO's clock, are byte-identical — the second carries the
// first's IssuedAt and signature — and a pull after any change of state
// carries a signature of its own, stamped when it was made.
func TestPullSignsEachVersionOnce(t *testing.T) {
	bed := newVOBed(t)
	start := time.Unix(1_700_000_000, 0).UTC()
	clock := start
	bed.server.now = func() time.Time { return clock }
	svc := NewSyncService(bed.server, nil)

	first, _ := fullPull(t, bed, svc)
	clock = clock.Add(10 * time.Second)
	second, b := fullPull(t, bed, svc)
	if !bytes.Equal(first, second) {
		t.Fatal("two full pulls at one version differ")
	}
	if !b.IssuedAt.Equal(start) {
		t.Fatalf("re-exported version stamped %v, first exported %v", b.IssuedAt, start)
	}

	// A snapshot and a journal record that set the version the server is
	// already at, over other tables: only resets tells them apart.
	sameVersionSnapshot := func() []byte {
		twin := NewServer(bed.server.cred)
		twin.AddMember(gridcert.MustParseName("/O=Grid/CN=Restored"), "researchers")
		snap := twin.EncodeState()
		binary.BigEndian.PutUint64(snap[1:9], bed.server.Version())
		return snap
	}
	sameVersionRecord := func() []byte {
		return encodeCASMutation(casMutMemberAdd, bed.server.Version(), func(e *wire.Encoder) {
			e.Str("/O=Grid/CN=Replayed")
			authz.WireEncodeStrings(e, []string{"researchers"})
		})
	}
	r := NewReplica(bed.server.Certificate())
	for _, change := range []struct {
		name string
		do   func() error
	}{
		{"AddMemberChecked", func() error { return bed.server.AddMemberChecked(bed.bob.Identity(), "students") }},
		{"AssignRoleChecked", func() error { return bed.server.AssignRoleChecked(bed.bob.Identity(), "operator") }},
		{"RemoveMemberChecked", func() error { return bed.server.RemoveMemberChecked(bed.bob.Identity()) }},
		{"AddPolicyChecked", func() error {
			return bed.server.AddPolicyChecked(authz.Rule{ID: "later", Effect: authz.EffectDeny, Resources: []string{"*"}, Actions: []string{"delete"}})
		}},
		{"RestoreState", func() error { return bed.server.RestoreState(sameVersionSnapshot()) }},
		{"ApplyReplayed", func() error { return bed.server.ApplyReplayed(sameVersionRecord()) }},
	} {
		_, before := fullPull(t, bed, svc)
		if err := change.do(); err != nil {
			t.Fatalf("%s: %v", change.name, err)
		}
		clock = clock.Add(10 * time.Second)
		doc, after := fullPull(t, bed, svc)
		if bytes.Equal(after.Signature, before.Signature) || !after.IssuedAt.Equal(clock) {
			t.Fatalf("%s: the next pull reused the signature of version %d (stamped %v, clock %v)", change.name, before.Version, after.IssuedAt, clock)
		}
		if err := r.ApplyEncoded(doc); err != nil {
			t.Fatalf("%s: replica refused the re-signed bundle: %v", change.name, err)
		}
	}
}

// TestConcurrentPullsVerify: full pulls racing each other and the
// mutations that move the version all serve bundles that verify — a
// signature kept by one export never goes out over another's tables.
func TestConcurrentPullsVerify(t *testing.T) {
	bed := newVOBed(t)
	svc := NewSyncService(bed.server, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				call := newSyncCall(SyncOpPull, bed, true, false)
				call.Body = []byte("0")
				reply, err := svc.Invoke(call)
				if err == nil {
					var doc []byte
					if _, doc, err = DecodeSyncReply(reply); err == nil {
						err = NewReplica(bed.server.Certificate()).ApplyEncoded(doc)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		dn := gridcert.MustParseName(fmt.Sprintf("/O=Grid/CN=Racer %d", i%10))
		if i%20 < 10 {
			bed.server.AddMember(dn, "researchers")
		} else if err := bed.server.RemoveMemberChecked(dn); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestKeptSignatureFailsClosed: if the tables ever changed without a
// version bump (no API does that; this test reaches in), the kept
// signature would not cover what the next pull writes, and the replica
// refuses it, staying exactly where it was.
func TestKeptSignatureFailsClosed(t *testing.T) {
	bed := newVOBed(t)
	svc := NewSyncService(bed.server, nil)
	r := NewReplica(bed.server.Certificate())
	held, _ := fullPull(t, bed, svc)
	if err := r.ApplyEncoded(held); err != nil {
		t.Fatal(err)
	}
	wantVer, wantGen := r.Version(), r.Generation()

	bed.server.AddMember(bed.bob.Identity(), "researchers")
	fullPull(t, bed, svc) // signs the new version, and keeps the signature
	mallory := gridcert.MustParseName("/O=Grid/CN=Mallory")
	bed.server.mu.Lock()
	setKeyLocked(bed.server.members, &bed.server.memberOrder, mallory.String(), []string{"researchers"})
	bed.server.mu.Unlock()

	call := newSyncCall(SyncOpPull, bed, true, false)
	call.Body = []byte("0")
	reply, err := svc.Invoke(call)
	if err != nil {
		t.Fatal(err)
	}
	_, doc, err := DecodeSyncReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyEncoded(doc); err == nil || !strings.Contains(err.Error(), "bundle signature") {
		t.Fatalf("a bundle its kept signature does not cover: err = %v", err)
	}
	if r.Version() != wantVer || r.Generation() != wantGen {
		t.Fatalf("replica moved to version %d generation %d (was %d, %d)", r.Version(), r.Generation(), wantVer, wantGen)
	}
	if _, _, ok := r.Lookup(mallory); ok {
		t.Fatal("Mallory became a member")
	}
	if _, _, ok := r.Lookup(bed.bob.Identity()); ok {
		t.Fatal("the refused bundle's member was installed")
	}
	if groups, _, ok := r.Lookup(bed.alice.Identity()); !ok || len(groups) != 1 || groups[0] != "researchers" {
		t.Fatalf("Lookup(alice) = %v, %v", groups, ok)
	}
}

// TestSyncApplyAllocBytes: the syncer's full-sync apply of a
// 10,000-member bundle — DecodeSyncReply, then ApplyEncoded — allocates
// one string copy of the signed bytes and one table build. The ceiling
// is 3x the signed bytes: one copy and one build take 2.4x, and
// decoding the bundle before applying it, which builds the tables
// twice, took 4.8x.
func TestSyncApplyAllocBytes(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	bed := bigRoll(t, 10_000)
	_, tbs, sig, err := bed.server.exportSigned()
	if err != nil {
		t.Fatal(err)
	}
	reply := encodeSyncReply(syncTagFull, tbs, sig)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := NewReplica(bed.server.Certificate())
		_, doc, err := DecodeSyncReply(reply)
		if err == nil {
			err = r.ApplyEncoded(doc)
		}
		if err != nil || r.Members() != 10_001 {
			t.Fatalf("full-sync apply: %v, %d members", err, r.Members())
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("full-sync apply of a 10,000-member bundle: %.0f bytes allocated, %.2fx its %d signed bytes", perRun, perRun/float64(len(tbs)), len(tbs))
	if ceiling := 3 * float64(len(tbs)); perRun > ceiling {
		t.Fatalf("full-sync apply of a 10,000-member bundle allocates %.0f bytes, want <= %.0f (3x the signed bytes)", perRun, ceiling)
	}
}
