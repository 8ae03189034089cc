package cas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/gridcert"
	"repro/internal/israce"
	"repro/internal/wire"
)

// Tests for the bytes-first bundle path: the replica's tables are carved
// out of the bytes the VO signed, so these pin (1) fail-closed on every
// malformed, mis-signed or non-canonical input, (2) that what is
// installed is what was signed, (3) that carved lists never share
// backing store, (4) that the wire format did not move, (5) that a
// replica fed any interleaving of full and delta pulls answers as its
// publisher does, and (6) what a full sync allocates on each side.

// rawTable writes one DN -> list table: its count, then each entry as
// key followed by the key's list. No sorting, no checks — the point is
// to spell tables the encoder never would.
func rawTable(entries ...[]string) func(*wire.Encoder) {
	return func(e *wire.Encoder) {
		e.U32(uint32(len(entries)))
		for _, kv := range entries {
			e.Str(kv[0])
			authz.WireEncodeStrings(e, kv[1:])
		}
	}
}

// rawCount writes a table that is only a count prefix.
func rawCount(n uint32) func(*wire.Encoder) { return func(e *wire.Encoder) { e.U32(n) } }

// signedRaw spells a bundle by hand — header, then whatever the three
// fillers (members, roles, rules) write — and signs it with the VO's own
// key: what a byzantine or buggy publisher could put on the wire, with a
// signature that verifies.
func signedRaw(t testing.TB, bed *voBed, vo string, version uint64, members, roles, rules func(*wire.Encoder)) []byte {
	t.Helper()
	e := wire.NewEncoder().Str(bundleMagic).Str(vo).U64(version).I64(time.Now().Unix())
	members(e)
	roles(e)
	rules(e)
	return signedDoc(t, bed, e.Finish())
}

func signedDoc(t testing.TB, bed *voBed, tbs []byte) []byte {
	t.Helper()
	sig, err := bed.server.cred.Key.Sign(tbs)
	if err != nil {
		t.Fatal(err)
	}
	return wire.NewEncoder().Bytes(tbs).Bytes(sig).Finish()
}

// decodeAndApply is the product path for a full bundle off the wire.
func decodeAndApply(r *Replica, doc []byte) error {
	b, err := DecodeBundle(doc)
	if err != nil {
		return err
	}
	return r.Apply(b)
}

// TestApplyRefusalsLeaveReplicaUnmoved runs every refusal against a
// replica that already holds a good bundle: version, generation and
// Lookup must be exactly where they were afterwards.
func TestApplyRefusalsLeaveReplicaUnmoved(t *testing.T) {
	bed := newVOBed(t)
	bed.server.AssignRole(bed.alice.Identity(), "operator")
	stale, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	bed.server.AddMember(bed.bob.Identity(), "researchers")
	good, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(bed.server.Certificate())
	if err := decodeAndApply(r, good.Encode()); err != nil {
		t.Fatal(err)
	}
	wantVer, wantGen := r.Version(), r.Generation()
	unmoved := func(what string) {
		t.Helper()
		if r.Version() != wantVer || r.Generation() != wantGen {
			t.Fatalf("%s: replica moved to version %d generation %d (was %d, %d)", what, r.Version(), r.Generation(), wantVer, wantGen)
		}
		groups, roles, ok := r.Lookup(bed.alice.Identity())
		if !ok || len(groups) != 1 || groups[0] != "researchers" || len(roles) != 1 || roles[0] != "operator" {
			t.Fatalf("%s: Lookup(alice) = %v, %v, %v", what, groups, roles, ok)
		}
		if _, _, ok := r.Lookup(gridcert.MustParseName("/O=Grid/CN=Mallory")); ok {
			t.Fatalf("%s: Mallory became a member", what)
		}
	}
	refused := func(what string, doc []byte) {
		t.Helper()
		if err := decodeAndApply(r, doc); err == nil {
			t.Fatalf("%s: accepted", what)
		}
		unmoved(what)
	}

	// A newer, genuine bundle to damage: the replica would take it as is.
	bed.server.AddMember(gridcert.MustParseName("/O=Grid/CN=Mallory"), "researchers")
	newer, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	doc := newer.Encode()
	sigStart := len(doc) - len(newer.Signature)
	for i := range doc {
		flipped := append([]byte(nil), doc...)
		flipped[i] ^= 0x01
		what := "flipped signed byte"
		if i >= sigStart {
			what = "flipped signature byte"
		}
		refused(fmt.Sprintf("%s %d", what, i), flipped)
	}
	for n := 0; n < len(doc); n++ {
		refused(fmt.Sprintf("truncated to %d bytes", n), doc[:n])
	}
	refused("trailing byte after the document", append(append([]byte(nil), doc...), 0))

	// Validly signed, but not something the encoder writes.
	vo := bed.server.VO().String()
	ver := wantVer + 5
	none := rawCount(0)
	a, b := []string{"/O=Grid/CN=A", "g"}, []string{"/O=Grid/CN=B", "g"}
	tooMany := make([]string, 4096+2) // key, then one entry past the per-list cap
	for i := range tooMany {
		tooMany[i] = "x"
	}
	tooMany[0] = "/O=Grid/CN=Mallory"
	trailing := append(newer.tbs(), 0)
	for _, tc := range []struct {
		what string
		doc  []byte
		why  string
	}{
		{"trailing byte inside the signed bytes", signedDoc(t, bed, trailing), "trailing"},
		{"truncated signed bytes", signedDoc(t, bed, newer.tbs()[:len(newer.tbs())-3]), "truncated"},
		{"unsorted member keys", signedRaw(t, bed, vo, ver, rawTable(b, a), none, none), "ascending order"},
		{"duplicate member key", signedRaw(t, bed, vo, ver, rawTable(a, a), none, none), "ascending order"},
		{"empty member key", signedRaw(t, bed, vo, ver, rawTable([]string{"", "g"}), none, none), `bundle member "" is empty`},
		{"unsorted role keys", signedRaw(t, bed, vo, ver, rawTable(a, b), rawTable(b, a), none), "ascending order"},
		{"duplicate role key", signedRaw(t, bed, vo, ver, rawTable(a, b), rawTable(b, b), none), "ascending order"},
		{"empty role key", signedRaw(t, bed, vo, ver, rawTable(a), rawTable([]string{""}), none), `bundle role holder "" is empty`},
		{"member count over the cap", signedRaw(t, bed, vo, ver, rawCount(maxBundleMembers+1), none, none), "exceeds cap"},
		{"role-holder count over the cap", signedRaw(t, bed, vo, ver, none, rawCount(maxBundleMembers+1), none), "exceeds cap"},
		{"member count beyond the bytes", signedRaw(t, bed, vo, ver, rawCount(maxBundleMembers), none, none), "bundle member"},
		{"group list over the cap", signedRaw(t, bed, vo, ver, rawTable(tooMany), none, none), "string list count 4097 exceeds cap"},
		{"role list over the cap", signedRaw(t, bed, vo, ver, none, rawTable(tooMany), none), "string list count 4097 exceeds cap"},
		{"rule count over the cap", signedRaw(t, bed, vo, ver, none, none, rawCount(maxAssertionRules+1)), "bundle rule count 4097 exceeds cap"},
		{"rule with an invalid effect", signedRaw(t, bed, vo, ver, rawTable(a), none, func(e *wire.Encoder) {
			e.U32(1)
			authz.WireEncodeRule(e, authz.Rule{ID: "bad", Effect: authz.Effect(9)})
		}), "invalid effect"},
		{"VO name spelled non-canonically", signedRaw(t, bed, "", ver, rawTable(a), none, none), "canonical form"},
		{"VO name of another community", signedRaw(t, bed, "/O=Grid/CN=OtherVO CAS", ver, rawTable(a), none, none), "does not match CAS certificate"},
		{"wrong magic", signedDoc(t, bed, wire.NewEncoder().Str("cas-bundle-v0").Raw(newer.tbs()[4+len(bundleMagic):]).Finish()), "bad bundle magic"},
	} {
		if err := decodeAndApply(r, tc.doc); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s: err = %v, want one naming %q", tc.what, err, tc.why)
		}
		unmoved(tc.what)
	}

	// The hand-spelled form itself is fine: the same builder, canonical
	// input, is accepted — so the refusals above are the decoder's, not
	// the builder's.
	probe := NewReplica(bed.server.Certificate())
	if err := decodeAndApply(probe, signedRaw(t, bed, vo, ver, rawTable(a, b), rawTable(a), none)); err != nil {
		t.Fatalf("canonical hand-spelled bundle refused: %v", err)
	}
	if g, _, ok := probe.Lookup(gridcert.MustParseName("/O=Grid/CN=B")); !ok || len(g) != 1 {
		t.Fatalf("canonical hand-spelled bundle: Lookup(B) = %v, %v", g, ok)
	}

	// Another VO's genuine bundle; stale and equal versions.
	other := newVOBed(t)
	other.server.AddMember(bed.bob.Identity(), "researchers")
	other.server.AddMember(gridcert.MustParseName("/O=Grid/CN=Mallory"), "researchers")
	foreign, err := other.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	refused("another VO's bundle", foreign.Encode())
	if err := decodeAndApply(r, stale.Encode()); !errors.Is(err, ErrStaleBundle) {
		t.Fatalf("stale bundle: err = %v, want ErrStaleBundle", err)
	}
	unmoved("stale bundle")
	if err := decodeAndApply(r, good.Encode()); err != nil {
		t.Fatalf("equal version is a no-op, got %v", err)
	}
	unmoved("equal version")

	// And the undamaged newer bundle still goes in.
	if err := decodeAndApply(r, doc); err != nil {
		t.Fatalf("the genuine newer bundle: %v", err)
	}
	if r.Version() != newer.Version || r.Generation() != wantGen+1 {
		t.Fatalf("after the genuine bundle: version %d generation %d", r.Version(), r.Generation())
	}
}

// TestApplyInstallsWhatWasSigned: a decoded bundle answers for its
// bytes. Fields changed after decode are not what the VO signed, and
// they are not what the replica installs.
func TestApplyInstallsWhatWasSigned(t *testing.T) {
	bed := newVOBed(t)
	bed.server.AssignRole(bed.alice.Identity(), "operator")
	exported, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	doc := exported.Encode()
	b, err := DecodeBundle(doc)
	if err != nil {
		t.Fatal(err)
	}
	mallory := gridcert.MustParseName("/O=Grid/CN=Mallory")
	b.Members[mallory.String()] = []string{"researchers"}
	b.Members[bed.alice.Identity().String()][0] = "admins"
	delete(b.Roles, bed.alice.Identity().String())
	b.Version += 100
	b.Rules = []authz.Rule{{ID: "open", Effect: authz.EffectPermit}}

	r := NewReplica(bed.server.Certificate())
	if err := r.Apply(b); err != nil {
		t.Fatalf("Apply of the signed bytes: %v", err)
	}
	if r.Version() != exported.Version {
		t.Fatalf("replica at version %d, the VO signed %d", r.Version(), exported.Version)
	}
	if _, _, ok := r.Lookup(mallory); ok {
		t.Fatal("a member added after decode was installed")
	}
	groups, roles, ok := r.Lookup(bed.alice.Identity())
	if !ok || len(groups) != 1 || groups[0] != "researchers" || len(roles) != 1 || roles[0] != "operator" {
		t.Fatalf("Lookup(alice) = %v, %v, %v; want what was signed", groups, roles, ok)
	}
	write := authz.Request{Subject: bed.alice.Identity(), Resource: "data:/climate/ocean", Action: "write"}
	if d := evaluate(r, write); d == authz.Permit {
		t.Fatal("a rule swapped in after decode was installed")
	}
	if !bytes.Equal(b.Encode(), doc) {
		t.Fatal("a decoded bundle no longer encodes to the bytes it arrived as")
	}
	// The same changes on a bundle built in process break its signature:
	// that one answers for its fields.
	exported.Members[mallory.String()] = []string{"researchers"}
	if err := NewReplica(bed.server.Certificate()).Apply(exported); err == nil {
		t.Fatal("tampered in-process bundle accepted")
	}
}

// TestCarvedTablesAreIsolated: every list the replica carves is a
// cap == len window, so the in-place append of a role-assign delta and a
// member-add delta on one DN leave the lists of its neighbours in the
// arena exactly as they were — and nothing the replica does reaches the
// bundle the caller still holds.
func TestCarvedTablesAreIsolated(t *testing.T) {
	bed := newVOBed(t)
	dns := make([]gridcert.Name, 5)
	for i := range dns {
		dns[i] = gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Carve/CN=member %d", i))
		bed.server.AddMember(dns[i], fmt.Sprintf("group-%d-a", i), fmt.Sprintf("group-%d-b", i))
		bed.server.AssignRole(dns[i], fmt.Sprintf("role-%d-a", i), fmt.Sprintf("role-%d-b", i))
	}
	exported, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	held, err := DecodeBundle(exported.Encode())
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica(bed.server.Certificate())
	if err := r.Apply(held); err != nil {
		t.Fatal(err)
	}
	for _, dn := range dns {
		g, ro, _ := r.Lookup(dn)
		if cap(g) != len(g) || cap(ro) != len(ro) {
			t.Fatalf("%s: carved lists have spare capacity (groups %d/%d, roles %d/%d)", dn, len(g), cap(g), len(ro), cap(ro))
		}
	}

	from := bed.server.Version()
	bed.server.AssignRole(dns[2], "role-2-c", "role-2-d")
	bed.server.AddMember(dns[2], "group-2-new")
	bed.server.AssignRole(dns[0], "role-0-c")
	d, err := bed.server.ExportDelta(from)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeDelta(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyDelta(decoded); err != nil {
		t.Fatal(err)
	}
	for i, dn := range dns {
		groups, roles, ok := r.Lookup(dn)
		wantGroups, _ := bed.server.IsMember(dn)
		if !ok || !slices.Equal(groups, wantGroups) || !slices.Equal(roles, bed.server.Roles(dn)) {
			t.Fatalf("member %d after deltas on its neighbours: %v, %v; publisher has %v, %v", i, groups, roles, wantGroups, bed.server.Roles(dn))
		}
	}
	if _, roles, _ := r.Lookup(dns[2]); len(roles) != 4 {
		t.Fatalf("the delta's own DN: roles %v", roles)
	}
	// The caller's bundles are untouched: both still verify, and the
	// decoded one still reads as it did.
	if err := held.Verify(bed.server.Certificate()); err != nil {
		t.Fatalf("the decoded bundle after deltas: %v", err)
	}
	if err := exported.Verify(bed.server.Certificate()); err != nil {
		t.Fatalf("the exported bundle after deltas: %v", err)
	}
	if got := held.Roles[dns[2].String()]; len(got) != 2 || got[1] != "role-2-b" {
		t.Fatalf("the decoded bundle's own roles changed: %v", got)
	}
	fresh := NewReplica(bed.server.Certificate())
	if err := fresh.Apply(exported); err != nil {
		t.Fatalf("re-applying the exported bundle elsewhere: %v", err)
	}
}

// TestExportMatchesFieldEncoding pins the wire format: the bytes
// exportSigned writes straight from the live tables are the bytes the
// field-by-field encoder of the previous release wrote for the same
// state (spelled out here, not shared with the product), the Pull reply
// is a tag plus the exported bundle's Encode(), and a decoded bundle
// re-encodes from its fields to the same bytes.
func TestExportMatchesFieldEncoding(t *testing.T) {
	bed := newVOBed(t)
	at := time.Unix(1_700_000_000, 0)
	bed.server.now = func() time.Time { return at }
	for i := 0; i < 50; i++ {
		dn := gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Pin/CN=member %d of a name long enough to leave the small-string path", (i*37)%50))
		bed.server.AddMember(dn, "researchers", fmt.Sprintf("project-%d", i%7))
		if i%3 == 0 {
			bed.server.AssignRole(dn, "operator")
		}
		if i%10 == 0 {
			bed.server.AddMember(gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Pin/CN=groupless %d", i)))
		}
	}
	bed.server.AddPolicy(authz.Rule{
		ID: "vo-window", Effect: authz.EffectDeny, Subjects: []string{"*"}, Roles: []string{"operator"},
		Resources: []string{"data:/climate/embargo/*"}, Actions: []string{"read", "write"},
		NotBefore: at.Add(-time.Hour), NotAfter: at.Add(time.Hour),
	})

	version, tbs, sig, err := bed.server.exportSigned()
	if err != nil {
		t.Fatal(err)
	}
	if version != bed.server.Version() {
		t.Fatalf("exported version %d, server at %d", version, bed.server.Version())
	}
	want := wire.NewEncoder()
	want.Str("cas-bundle-v1").Str(bed.server.VO().String()).U64(version).I64(at.Unix())
	for _, m := range []map[string][]string{bed.server.members, bed.server.roles} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		want.U32(uint32(len(keys)))
		for _, k := range keys {
			want.Bytes([]byte(k))
			want.U32(uint32(len(m[k])))
			for _, s := range m[k] {
				want.Bytes([]byte(s))
			}
		}
	}
	rules := bed.server.policy.Rules()
	want.U32(uint32(len(rules)))
	for _, r := range rules {
		authz.WireEncodeRule(want, r)
	}
	if !bytes.Equal(tbs, want.Finish()) {
		t.Fatal("exportSigned's bytes are not the field-by-field encoding of the same state")
	}
	if cap(tbs) != len(tbs) {
		t.Fatalf("signed bytes were sized %d for %d", cap(tbs), len(tbs))
	}
	if err := bed.server.Certificate().PublicKey.Verify(tbs, sig); err != nil {
		t.Fatalf("exported signature: %v", err)
	}

	exported, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	call := newSyncCall(SyncOpPull, bed, true, false)
	call.Body = []byte("0")
	reply, err := NewSyncService(bed.server, nil).Invoke(call)
	if err != nil {
		t.Fatal(err)
	}
	if reply[0] != syncTagFull || !bytes.Equal(reply[1:], exported.Encode()) {
		t.Fatal("Pull reply is not the full tag plus ExportBundle().Encode()")
	}
	_, doc, err := DecodeSyncReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBundle(doc)
	if err != nil {
		t.Fatal(err)
	}
	fields := *decoded
	fields.signed = nil
	if !bytes.Equal(fields.Encode(), reply[1:]) {
		t.Fatal("a decoded bundle's fields do not encode to the bytes it arrived as")
	}
}

// TestReplicaFollowsPublisher is the differential oracle ROADMAP aim 3
// asks for: over a seeded random sequence of publisher mutations, each
// followed by a full pull, a delta pull or nothing — all through
// SyncService.Invoke, DecodeSyncReply and ApplyEncoded/ApplyDelta — a replica
// that has just synced answers Lookup for every DN ever used, and
// Evaluate for a fixed request set, exactly as the publisher's own state
// does. (Seeded bug it catches: carving lists without the cap == len
// limit makes a role-assign delta write into the next DN's roles.)
func TestReplicaFollowsPublisher(t *testing.T) {
	bed := newVOBed(t)
	rng := rand.New(rand.NewSource(20))
	svc := NewSyncService(bed.server, nil)
	r := NewReplica(bed.server.Certificate())

	dns := make([]gridcert.Name, 48)
	for i := range dns {
		dns[i] = gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Oracle/CN=member %02d", i))
	}
	groups := []string{"researchers", "students", "staff", "visitors"}
	roles := []string{"operator", "reader", "curator"}
	pick := func(from []string) []string {
		out := make([]string, rng.Intn(3))
		for i := range out {
			out[i] = from[rng.Intn(len(from))]
		}
		return out
	}
	var requests []authz.Request
	for _, res := range []string{"data:/climate/ocean", "data:/climate/embargo/x", "data:/other"} {
		for _, act := range []string{"read", "write"} {
			requests = append(requests, authz.Request{Resource: res, Action: act, Time: time.Unix(1_700_000_000, 0)})
		}
	}
	pull := func(have uint64) (full bool) {
		t.Helper()
		call := newSyncCall(SyncOpPull, bed, true, false)
		call.Body = strconv.AppendUint(nil, have, 10)
		reply, err := svc.Invoke(call)
		if err != nil {
			t.Fatal(err)
		}
		delta, bundle, err := DecodeSyncReply(reply)
		if err != nil {
			t.Fatal(err)
		}
		if delta != nil {
			err = r.ApplyDelta(delta)
		} else {
			err = r.ApplyEncoded(bundle)
		}
		if err != nil {
			t.Fatalf("sync from %d: %v", have, err)
		}
		return bundle != nil
	}

	var fulls, deltas int
	for step := 0; step < 1200; step++ {
		dn := dns[rng.Intn(len(dns))]
		switch n := rng.Intn(20); {
		case n < 8:
			bed.server.AddMember(dn, pick(groups)...)
		case n < 11:
			bed.server.RemoveMemberChecked(dn)
		case n < 19:
			bed.server.AssignRole(dn, pick(roles)...)
		default:
			effect := authz.EffectPermit
			if rng.Intn(4) == 0 {
				effect = authz.EffectDeny
			}
			bed.server.AddPolicy(authz.Rule{
				ID: fmt.Sprintf("oracle-%d", step), Effect: effect,
				Groups: pick(groups), Roles: pick(roles),
				Resources: []string{[]string{"data:/climate/*", "data:/climate/embargo/*", "*"}[rng.Intn(3)]},
				Actions:   []string{[]string{"read", "write", "*"}[rng.Intn(3)]},
			})
		}
		switch rng.Intn(3) {
		case 0:
			pull(0)
			fulls++
		case 1:
			if pull(r.Version()) {
				fulls++
			} else {
				deltas++
			}
		default:
			continue
		}
		if r.Version() != bed.server.Version() {
			t.Fatalf("step %d: replica at %d, publisher at %d", step, r.Version(), bed.server.Version())
		}
		for _, dn := range dns {
			wantGroups, wantOK := bed.server.IsMember(dn)
			wantRoles := bed.server.Roles(dn)
			gotGroups, gotRoles, gotOK := r.Lookup(dn)
			if gotOK != wantOK || (wantOK && (!slices.Equal(gotGroups, wantGroups) || !slices.Equal(gotRoles, wantRoles))) {
				t.Fatalf("step %d: Lookup(%s) = %v, %v, %v; publisher has %v, %v, %v", step, dn, gotGroups, gotRoles, gotOK, wantGroups, wantRoles, wantOK)
			}
			for _, req := range requests {
				req.Subject = dn
				want := authz.Deny
				if wantOK {
					asked := req
					asked.Groups, asked.Roles = wantGroups, wantRoles
					want = bed.server.policy.Evaluate(asked)
				}
				if got := evaluate(r, req); got != want {
					t.Fatalf("step %d: Evaluate(%s %s %s) = %v, publisher says %v", step, dn, req.Action, req.Resource, got, want)
				}
			}
		}
	}
	if fulls < 300 || deltas < 200 {
		t.Fatalf("the walk took %d full and %d delta syncs; want a real mix", fulls, deltas)
	}
}

// bigRoll enrolls n members shaped like the benchmark's (one group, a
// DN well past the small-string size) and a few role holders.
func bigRoll(t testing.TB, n int) *voBed {
	t.Helper()
	bed := newVOBed(t)
	for i := 0; i < n; i++ {
		dn := gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=BenchVO/OU=Members/CN=member %06d", i))
		bed.server.AddMember(dn, "researchers")
		if i%100 == 0 {
			bed.server.AssignRole(dn, "operator")
		}
	}
	return bed
}

// TestFullApplyAllocs: decoding and applying a 10,000-member bundle — a
// replica's first sync — allocates by the table, not by the member
// (about six allocations a member before the tables were carved).
func TestFullApplyAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	bed := bigRoll(t, 10_000)
	exported, err := bed.server.ExportBundle()
	if err != nil {
		t.Fatal(err)
	}
	doc := exported.Encode()
	allocs := testing.AllocsPerRun(5, func() {
		r := NewReplica(bed.server.Certificate())
		if err := decodeAndApply(r, doc); err != nil {
			t.Fatal(err)
		}
		if r.Members() != 10_001 {
			t.Fatalf("replica holds %d members", r.Members())
		}
	})
	t.Logf("DecodeBundle + Apply of a 10,000-member bundle: %.0f allocations", allocs)
	if allocs > 1000 {
		t.Fatalf("DecodeBundle + Apply of a 10,000-member bundle allocates %.0f, want <= 1000", allocs)
	}
}

// TestPullAllocs: the publisher's side of that first sync, a version-0
// Pull over the same roll, is one sort and one encode into a sized
// buffer (it was a slice copy per entry and a []byte per DN in each of
// two encodes).
func TestPullAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; the ceiling only holds in plain builds")
	}
	bed := bigRoll(t, 10_000)
	svc := NewSyncService(bed.server, nil)
	call := newSyncCall(SyncOpPull, bed, true, false)
	call.Body = []byte("0")
	allocs := testing.AllocsPerRun(5, func() {
		reply, err := svc.Invoke(call)
		if err != nil || reply[0] != syncTagFull {
			t.Fatalf("pull: %v", err)
		}
	})
	t.Logf("version-0 Pull over a 10,000-member roll: %.0f allocations", allocs)
	if allocs > 1000 {
		t.Fatalf("a version-0 Pull over a 10,000-member roll allocates %.0f on the publisher, want <= 1000", allocs)
	}
}
