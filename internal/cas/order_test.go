package cas

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/gridcert"
	"repro/internal/wire"
)

// sortEveryTime is the table encoder the publisher used before it kept
// its keys in order: collect, sort, write.
func sortEveryTime(e *wire.Encoder, m map[string][]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Bytes([]byte(k))
		e.U32(uint32(len(m[k])))
		for _, s := range m[k] {
			e.Bytes([]byte(s))
		}
	}
}

// checkExports compares what s exports and snapshots — from the key order
// it kept — with the same state encoded by sorting there and then.
func checkExports(t *testing.T, step string, s *Server, at time.Time) {
	t.Helper()
	version, tbs, _, err := s.exportSigned()
	if err != nil {
		t.Fatal(err)
	}
	want := wire.NewEncoder().Str(bundleMagic).Str(s.VO().String()).U64(version).I64(at.Unix())
	sortEveryTime(want, s.members)
	sortEveryTime(want, s.roles)
	if tables := want.Finish(); !bytes.HasPrefix(tbs, tables) {
		t.Fatalf("after %s: the exported tables are not the roll, sorted", step)
	}
	snap := wire.NewEncoder().U8(casStateVersion).U64(version)
	sortEveryTime(snap, s.members)
	sortEveryTime(snap, s.roles)
	snap.Bytes(s.policy.EncodeState())
	if !bytes.Equal(s.EncodeState(), snap.Finish()) {
		t.Fatalf("after %s: the snapshot's tables are not the roll, sorted", step)
	}
}

// TestExportOrderFollowsRoll: the publisher sorts its roll once and keeps
// the order; every way a DN can enter or leave either table — live,
// replayed from the journal, restored from a snapshot — must drop it, and
// a regroup or a further role must not need to. After each step of a
// seeded sequence, on the live server and on one following its journal,
// the export and the snapshot equal a sort-every-time encoding.
func TestExportOrderFollowsRoll(t *testing.T) {
	bed := newVOBed(t)
	at := time.Unix(1_700_000_000, 0)
	live, follower := bed.server, NewServer(bed.server.cred)
	live.now = func() time.Time { return at }
	follower.now = func() time.Time { return at }
	if err := follower.RestoreState(live.EncodeState()); err != nil {
		t.Fatal(err)
	}
	checkExports(t, "restore", follower, at)
	var journal [][]byte
	live.SetJournal(func(p []byte) error { journal = append(journal, append([]byte(nil), p...)); return nil })

	rng := rand.New(rand.NewSource(22))
	dn := func() gridcert.Name {
		return gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Roll/CN=member %02d", rng.Intn(40)))
	}
	for i := 0; i < 400; i++ {
		var step string
		switch who := dn(); rng.Intn(4) {
		case 0:
			step = "enrol or regroup " + who.String()
			live.AddMember(who, fmt.Sprintf("group-%d", rng.Intn(5)))
		case 1:
			step = "expel " + who.String()
			live.RemoveMemberChecked(who)
		case 2:
			step = "role for " + who.String() // a role holder need not be a member
			live.AssignRole(who, fmt.Sprintf("role-%d", rng.Intn(3)))
		case 3:
			step = "restore"
			restored := NewServer(live.cred)
			restored.AddMember(who, "before the restore") // an order to forget
			restored.now = func() time.Time { return at }
			checkExports(t, "enrol before restore", restored, at)
			if err := restored.RestoreState(live.EncodeState()); err != nil {
				t.Fatal(err)
			}
			checkExports(t, step, restored, at)
		}
		checkExports(t, step, live, at)
		for _, record := range journal {
			if err := follower.ApplyReplayed(record); err != nil {
				t.Fatal(err)
			}
			checkExports(t, "replay of "+step, follower, at)
		}
		journal = journal[:0]
	}
	if len(live.members) < 5 || len(live.roles) < 5 {
		t.Fatalf("the sequence left %d members and %d role holders: too few to order", len(live.members), len(live.roles))
	}
	// Dropping the order at every mutation would pass all of the above.
	for known := range live.roles {
		live.AddMember(gridcert.MustParseName(known), "a group")
		checkExports(t, "enrol "+known, live, at)
		live.AddMember(gridcert.MustParseName(known), "another group")
		live.AssignRole(gridcert.MustParseName(known), "another role")
		if live.memberOrder == nil || live.roleOrder == nil {
			t.Fatal("a regroup or a further role dropped the kept order: the next pull sorts again")
		}
		break
	}
}

// TestExportOrderUnderConcurrentExports: exporters fill the kept order
// under the read lock they share, while enrolments and expulsions drop
// it. ExportBundle decodes its own bytes and refuses keys out of order,
// so a torn or stale order fails here (and trips the race detector).
func TestExportOrderUnderConcurrentExports(t *testing.T) {
	bed := newVOBed(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				b, err := bed.server.ExportBundle()
				if err != nil {
					t.Errorf("export: %v", err)
					return
				}
				if snap := NewServer(bed.server.cred); snap.RestoreState(bed.server.EncodeState()) != nil {
					t.Errorf("a snapshot taken beside version %d does not restore", b.Version)
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		dn := gridcert.MustParseName(fmt.Sprintf("/O=Grid/OU=Roll/CN=member %03d", (i*7)%50))
		if i%3 == 2 {
			bed.server.RemoveMemberChecked(dn)
		} else {
			bed.server.AddMember(dn, "researchers")
			bed.server.AssignRole(dn, "operator")
		}
	}
	close(done)
	wg.Wait()
}
