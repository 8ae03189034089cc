package cas

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"repro/internal/authz"
	"repro/internal/ogsa"
)

func newSyncCall(op string, bed *voBed, conversation, anonymous bool) *ogsa.Call {
	c := &ogsa.Call{Service: SyncHandle, Op: op, Conversation: conversation}
	if anonymous {
		c.Caller = ogsa.Identity{Anonymous: true}
	} else {
		c.Caller = ogsa.Identity{Name: bed.alice.Identity()}
	}
	return c
}

func TestBundleExportApplyRoundTrip(t *testing.T) {
	bed := newVOBed(t)
	bed.server.AssignRole(bed.alice.Identity(), "operator")

	b, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatalf("ExportBundle: %v", err)
	}
	if b.Version != bed.server.Version() {
		t.Fatalf("bundle version %d != server version %d", b.Version, bed.server.Version())
	}

	decoded, err := DecodeBundle(b.Encode())
	if err != nil {
		t.Fatalf("DecodeBundle: %v", err)
	}
	r := NewReplica(bed.server.Certificate())
	if err := r.Apply(decoded); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if r.Version() != b.Version || r.Generation() != 1 {
		t.Fatalf("replica version=%d gen=%d, want %d and 1", r.Version(), r.Generation(), b.Version)
	}
	groups, roles, ok := r.Lookup(bed.alice.Identity())
	if !ok || len(groups) != 1 || groups[0] != "researchers" || len(roles) != 1 || roles[0] != "operator" {
		t.Fatalf("Lookup(alice) = %v,%v,%v", groups, roles, ok)
	}
	if _, _, ok := r.Lookup(bed.bob.Identity()); ok {
		t.Fatal("bob is not a member")
	}

	// The replica answers the VO's half of a decision.
	req := authz.Request{Subject: bed.alice.Identity(), Resource: "data:/climate/ocean", Action: "read"}
	if d := r.Evaluate(req); d != authz.Permit {
		t.Fatalf("replica Evaluate = %v, want permit", d)
	}
	req.Action = "write"
	if d := r.Evaluate(req); d == authz.Permit {
		t.Fatal("replica granted an action the VO policy does not")
	}
	if d := r.Evaluate(authz.Request{Subject: bed.bob.Identity(), Resource: "data:/climate/ocean", Action: "read"}); d != authz.Deny {
		t.Fatal("non-member must be denied at the replica")
	}
}

func TestReplicaApplyFailsClosed(t *testing.T) {
	bed := newVOBed(t)
	r := NewReplica(bed.server.Certificate())
	good, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(good); err != nil {
		t.Fatal(err)
	}
	wantVer, wantGen := r.Version(), r.Generation()

	// Tampered payload: signature breaks.
	tampered, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	tampered.Members["/O=Grid/CN=Mallory"] = []string{"researchers"}
	if err := r.Apply(tampered); err == nil {
		t.Fatal("tampered bundle accepted")
	}

	// Stale version: a rolled-back bundle must not regress the replica.
	bed.server.AddMember(bed.bob.Identity(), "researchers")
	fresh, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(good); !errors.Is(err, ErrStaleBundle) {
		t.Fatalf("stale bundle: err=%v, want ErrStaleBundle", err)
	}

	// Equal version: up-to-date no-op, no generation churn.
	genBefore := r.Generation()
	if err := r.Apply(fresh); err != nil {
		t.Fatalf("re-apply of current bundle: %v", err)
	}
	if r.Generation() != genBefore {
		t.Fatal("up-to-date apply churned the generation")
	}

	// Wrong signer: a bundle from another VO's key.
	other := newVOBed(t)
	forged, err := other.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(forged); err == nil {
		t.Fatal("bundle signed by a different VO accepted")
	}
	_ = wantVer
	_ = wantGen
	if _, _, ok := r.Lookup(bed.alice.Identity()); !ok {
		t.Fatal("failed applies corrupted the live replica")
	}
}

func TestCASJournalAndReplay(t *testing.T) {
	bed := newVOBed(t) // two mutations already applied, unjournaled
	var journal [][]byte
	bed.server.SetJournal(func(p []byte) error {
		journal = append(journal, append([]byte(nil), p...))
		return nil
	})
	bed.server.AddMember(bed.bob.Identity(), "students")
	bed.server.AssignRole(bed.bob.Identity(), "reader")
	bed.server.AddPolicy(authz.Rule{
		ID: "vo-students", Effect: authz.EffectPermit,
		Groups: []string{"students"}, Resources: []string{"data:/climate/public/*"}, Actions: []string{"read"},
	})
	bed.server.RemoveMemberChecked(bed.alice.Identity())
	if len(journal) != 4 {
		t.Fatalf("journaled %d mutations, want 4", len(journal))
	}

	// Replay into a fresh server with the same credential: identical
	// version, membership, and policy.
	restored := NewServer(bed.server.cred)
	// Pre-journal state arrives via snapshot.
	preSnapshot := func() []byte {
		s := NewServer(bed.server.cred)
		s.AddMember(bed.alice.Identity(), "researchers")
		s.AddPolicy(authz.Rule{
			ID: "vo-read", Effect: authz.EffectPermit,
			Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"},
		})
		return s.EncodeState()
	}()
	if err := restored.RestoreState(preSnapshot); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for i, p := range journal {
		if err := restored.ApplyReplayed(p); err != nil {
			t.Fatalf("ApplyReplayed(%d): %v", i, err)
		}
	}
	if restored.Version() != bed.server.Version() {
		t.Fatalf("restored version %d != live %d", restored.Version(), bed.server.Version())
	}
	if _, ok := restored.IsMember(bed.alice.Identity()); ok {
		t.Fatal("removed member survived replay")
	}
	g, ok := restored.IsMember(bed.bob.Identity())
	if !ok || len(g) != 1 || g[0] != "students" {
		t.Fatalf("IsMember(bob) = %v,%v", g, ok)
	}
	if roles := restored.Roles(bed.bob.Identity()); len(roles) != 1 || roles[0] != "reader" {
		t.Fatalf("Roles(bob) = %v", roles)
	}
	if restored.PolicySize() != bed.server.PolicySize() {
		t.Fatalf("restored policy size %d != live %d", restored.PolicySize(), bed.server.PolicySize())
	}
}

func TestCASJournalErrorRefusesMutation(t *testing.T) {
	bed := newVOBed(t)
	boom := errors.New("disk full")
	bed.server.SetJournal(func([]byte) error { return boom })
	verBefore := bed.server.Version()

	if err := bed.server.AddMemberChecked(bed.bob.Identity(), "students"); !errors.Is(err, boom) {
		t.Fatalf("AddMemberChecked: err=%v", err)
	}
	if err := bed.server.AssignRoleChecked(bed.bob.Identity(), "reader"); !errors.Is(err, boom) {
		t.Fatalf("AssignRoleChecked: err=%v", err)
	}
	if err := bed.server.RemoveMemberChecked(bed.alice.Identity()); !errors.Is(err, boom) {
		t.Fatalf("RemoveMemberChecked: err=%v", err)
	}
	if err := bed.server.AddPolicyChecked(authz.Rule{ID: "x", Effect: authz.EffectPermit}); !errors.Is(err, boom) {
		t.Fatalf("AddPolicyChecked: err=%v", err)
	}
	if bed.server.Version() != verBefore {
		t.Fatal("refused mutations advanced the version")
	}
	if _, ok := bed.server.IsMember(bed.bob.Identity()); ok {
		t.Fatal("refused AddMember applied")
	}
	if _, ok := bed.server.IsMember(bed.alice.Identity()); !ok {
		t.Fatal("refused RemoveMember applied")
	}
}

func TestCASInvalidRuleNeverJournaled(t *testing.T) {
	// A rule the VO policy refuses must be rejected BEFORE the journal
	// sees it: a journaled-but-unapplied record would fail replay on
	// every restart, permanently refusing to open the durable state.
	bed := newVOBed(t)
	var journal [][]byte
	bed.server.SetJournal(func(p []byte) error {
		journal = append(journal, append([]byte(nil), p...))
		return nil
	})
	verBefore := bed.server.Version()
	err := bed.server.AddPolicyChecked(authz.Rule{ID: "bad", Effect: authz.Effect(99)})
	if err == nil {
		t.Fatal("invalid effect accepted")
	}
	if len(journal) != 0 {
		t.Fatalf("refused rule reached the journal (%d records)", len(journal))
	}
	if bed.server.Version() != verBefore {
		t.Fatal("refused rule advanced the version")
	}
	// A batch with one bad rule is refused whole, like Policy.AddChecked.
	err = bed.server.AddPolicyChecked(
		authz.Rule{ID: "good", Effect: authz.EffectPermit},
		authz.Rule{ID: "bad", Effect: authz.Effect(99)},
	)
	if err == nil || len(journal) != 0 {
		t.Fatalf("mixed batch: err=%v journaled=%d", err, len(journal))
	}
	// Valid rules still journal and replay.
	if err := bed.server.AddPolicyChecked(authz.Rule{
		ID: "vo-ok", Effect: authz.EffectPermit,
		Groups: []string{"researchers"}, Resources: []string{"data:/climate/*"}, Actions: []string{"read"},
	}); err != nil {
		t.Fatalf("valid rule refused: %v", err)
	}
	if len(journal) != 1 {
		t.Fatalf("journaled %d records, want 1", len(journal))
	}
	restored := NewServer(bed.server.cred)
	if err := restored.ApplyReplayed(journal[0]); err != nil {
		t.Fatalf("replaying the valid rule: %v", err)
	}
}

func TestCASStateSnapshotRoundTrip(t *testing.T) {
	bed := newVOBed(t)
	bed.server.AssignRole(bed.alice.Identity(), "operator")
	snap := bed.server.EncodeState()

	restored := NewServer(bed.server.cred)
	if err := restored.RestoreState(snap); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if restored.Version() != bed.server.Version() || restored.PolicySize() != bed.server.PolicySize() {
		t.Fatal("snapshot round trip lost state")
	}
	// Truncated snapshot fails closed.
	fresh := NewServer(bed.server.cred)
	fresh.AddMember(bed.bob.Identity(), "keep")
	if err := fresh.RestoreState(snap[:len(snap)-2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, ok := fresh.IsMember(bed.bob.Identity()); !ok {
		t.Fatal("failed restore mutated the live server")
	}
}

// TestSyncServiceOps pins the publisher's one rule: a replica at the
// server's version gets an empty signed delta, one the delta log covers
// gets the delta, and everything else — version 0, a version behind the
// log, a version ahead of the server — gets the full bundle.
func TestSyncServiceOps(t *testing.T) {
	bed := newVOBed(t)
	// A restore collapses history: the log of this server starts at the
	// snapshot's version, so anything older is a gap.
	server := NewServer(bed.server.cred)
	if err := server.RestoreState(bed.server.EncodeState()); err != nil {
		t.Fatal(err)
	}
	snap := server.Version()
	server.AddMember(bed.bob.Identity(), "researchers")
	svc := NewSyncService(server, nil)
	pull := func(have uint64, conversation, anonymous bool) ([]byte, error) {
		call := newSyncCall(SyncOpPull, bed, conversation, anonymous)
		call.Body = []byte(strconv.FormatUint(have, 10))
		return svc.Invoke(call)
	}

	for _, tc := range []struct {
		name    string
		have    uint64
		full    bool
		wantOps int
	}{
		{"current", snap + 1, false, 0},
		{"covered", snap, false, 1},
		{"gap", snap - 1, true, 0},
		{"empty replica", 0, true, 0},
		{"ahead of the publisher", snap + 5, true, 0},
	} {
		body, err := pull(tc.have, true, false)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		delta, bundle, err := DecodeSyncReply(body)
		if err != nil {
			t.Fatalf("%s: DecodeSyncReply: %v", tc.name, err)
		}
		if tc.full {
			if bundle == nil || bundle.Version != snap+1 {
				t.Fatalf("%s: want the full bundle at %d, got delta=%v bundle=%v", tc.name, snap+1, delta, bundle)
			}
			if err := bundle.Verify(server.Certificate()); err != nil {
				t.Fatalf("%s: served bundle does not verify: %v", tc.name, err)
			}
			if !bytes.Equal(body[1:], bundle.Encode()) {
				t.Fatalf("%s: reply is not a tag plus Bundle.Encode()", tc.name)
			}
			continue
		}
		if delta == nil || delta.FromVersion != tc.have || delta.ToVersion != snap+1 || len(delta.Ops) != tc.wantOps {
			t.Fatalf("%s: want a %d-op delta %d-%d, got delta=%+v bundle=%v", tc.name, tc.wantOps, tc.have, snap+1, delta, bundle)
		}
		if err := delta.Verify(server.Certificate()); err != nil {
			t.Fatalf("%s: served delta does not verify: %v", tc.name, err)
		}
		if !bytes.Equal(body[1:], delta.Encode()) {
			t.Fatalf("%s: reply is not a tag plus Delta.Encode()", tc.name)
		}
	}

	// Channel rules: no conversation, anonymous → refused; so are a body
	// that is not a version and the ops the pull replaced.
	if _, err := pull(0, false, false); err == nil {
		t.Fatal("per-message caller served a bundle")
	}
	if _, err := pull(0, true, true); err == nil {
		t.Fatal("anonymous caller served a bundle")
	}
	if _, err := svc.Invoke(newSyncCall(SyncOpPull, bed, true, false)); err == nil {
		t.Fatal("pull without a version served")
	}
	for _, op := range []string{"Bundle", "Version", "Delta"} {
		if _, err := svc.Invoke(newSyncCall(op, bed, true, false)); err == nil {
			t.Fatalf("retired op %s still served", op)
		}
	}
}
