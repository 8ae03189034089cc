// Crash-recovery semantics of the durable trust plane: a child process
// churns policy/gridmap/audit mutations through a WAL-backed
// DurableState, reporting the generations it has made durable; the
// parent kills it with SIGKILL mid-churn and reopens the directory. The
// reopened state must resume at-or-beyond every reported generation
// with the audit hash chain intact — and a clean close/reopen must
// resume at *identical* generations, which is what keeps the sharded
// decision cache warm across a restart.
package gsi_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"repro/internal/secsvc"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
	"repro/pkg/gsi"
)

// TestDurableCrashChild is the churn half of the crash test; it only
// runs re-exec'd by TestDurableCrashRecovery and loops until killed.
func TestDurableCrashChild(t *testing.T) {
	dir := os.Getenv("GSI_CRASH_DIR")
	if dir == "" {
		t.Skip("re-exec helper for TestDurableCrashRecovery")
	}
	ds, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if err := ds.Policy().AddChecked(gsi.Rule{
			ID:        fmt.Sprintf("rule-%06d", i),
			Effect:    gsi.EffectPermit,
			Subjects:  []string{fmt.Sprintf("/O=Crash/CN=u%06d", i)},
			Resources: []string{"data:/crash/*"},
			Actions:   []string{"read"},
		}); err != nil {
			t.Fatal(err)
		}
		if err := ds.GridMap().AddChecked(gsi.MustParseName(fmt.Sprintf("/O=Crash/CN=u%06d", i)), "crash"); err != nil {
			t.Fatal(err)
		}
		ds.Audit().Record("churn", fmt.Sprintf("/O=Crash/CN=u%06d", i), "crash-test mutation")
		if err := ds.Audit().JournalError(); err != nil {
			t.Fatal(err)
		}
		// Everything above is journaled with fsync-before-apply, so a
		// printed line is a durability claim the parent may hold us to
		// even if the very next instruction is SIGKILL.
		fmt.Printf("GEN %d %d %d\n", ds.Policy().Generation(), ds.GridMap().Generation(), ds.Audit().Len())
	}
}

func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDurableCrashChild$", "-test.timeout=2m")
	cmd.Env = append(os.Environ(), "GSI_CRASH_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Collect durability claims, then kill without warning mid-churn.
	var lastPolicy, lastGridmap, lastAudit uint64
	sc := bufio.NewScanner(stdout)
	lines := 0
	for sc.Scan() {
		var p, g, a uint64
		if _, err := fmt.Sscanf(sc.Text(), "GEN %d %d %d", &p, &g, &a); err != nil {
			continue
		}
		lastPolicy, lastGridmap, lastAudit = p, g, a
		if lines++; lines >= 25 {
			break
		}
	}
	if lines < 25 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child produced only %d GEN lines", lines)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // SIGKILL: error expected, exit state irrelevant

	// First reopen: recovery replays the WAL. Every durability claim
	// must hold, and the replayed audit chain must verify end to end.
	ds, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	pGen, gGen, aLen := ds.Policy().Generation(), ds.GridMap().Generation(), uint64(ds.Audit().Len())
	if pGen < lastPolicy || gGen < lastGridmap || aLen < lastAudit {
		t.Fatalf("recovered generations %d/%d/%d below reported %d/%d/%d",
			pGen, gGen, aLen, lastPolicy, lastGridmap, lastAudit)
	}
	if bad := ds.Audit().VerifyChain(); bad != -1 {
		t.Fatalf("audit chain broken at event %d after crash recovery", bad)
	}
	// Fold the replayed journal into a snapshot, then close cleanly.
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Second reopen (snapshot path): a clean restart resumes at
	// IDENTICAL generations — not merely consistent ones.
	ds2, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if p2, g2, a2 := ds2.Policy().Generation(), ds2.GridMap().Generation(), uint64(ds2.Audit().Len()); p2 != pGen || g2 != gGen || a2 != aLen {
		t.Fatalf("clean restart moved generations: %d/%d/%d, want %d/%d/%d", p2, g2, a2, pGen, gGen, aLen)
	}
	if bad := ds2.Audit().VerifyChain(); bad != -1 {
		t.Fatalf("audit chain broken at event %d after compacted restart", bad)
	}
	// And the recovered state still journals: a post-recovery mutation
	// must bump the generation past the crash-time value.
	if err := ds2.Policy().AddChecked(gsi.Rule{
		ID:        "post-recovery",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{"/O=Crash/CN=after"},
		Resources: []string{"data:/crash/*"},
		Actions:   []string{"read"},
	}); err != nil {
		t.Fatal(err)
	}
	if ds2.Policy().Generation() <= pGen {
		t.Fatal("post-recovery mutation did not advance the generation")
	}
}

// TestCompactCrashChild is the churn half of the compaction crash test;
// it only runs re-exec'd by TestCompactCrashRecovery. It churns
// mutations while a goroutine compacts once 16 records sit past the last
// snapshot; the snapshot stage hook kills the process with SIGKILL the
// moment a compaction completes the stage named by GSI_CRASH_STAGE, so
// each run dies at a different point of the stage → rotate → rename →
// cleanup sequence.
func TestCompactCrashChild(t *testing.T) {
	dir := os.Getenv("GSI_CRASH_DIR")
	stage := os.Getenv("GSI_CRASH_STAGE")
	if dir == "" || stage == "" {
		t.Skip("re-exec helper for TestCompactCrashRecovery")
	}
	wal.SnapshotStageHook = func(s string) {
		if s != stage {
			return
		}
		// The printed line is both the parent's proof that the compactor
		// reached this stage and the last thing this process ever does:
		// SIGKILL gives deferred cleanup no chance to tidy the journal.
		fmt.Printf("STAGE %s\n", s)
		p, _ := os.FindProcess(os.Getpid())
		p.Kill()
		select {} // freeze the compactor until the signal lands
	}
	ds, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range time.Tick(5 * time.Millisecond) {
			if ds.JournalStats().RecordsSinceSnapshot >= 16 {
				ds.Compact() // a stale snapshot is retried next tick
			}
		}
	}()
	for i := 0; ; i++ {
		if err := ds.Policy().AddChecked(gsi.Rule{
			ID:        fmt.Sprintf("rule-%06d", i),
			Effect:    gsi.EffectPermit,
			Subjects:  []string{fmt.Sprintf("/O=Crash/CN=u%06d", i)},
			Resources: []string{"data:/crash/*"},
			Actions:   []string{"read"},
		}); err != nil {
			t.Fatal(err)
		}
		ds.Audit().Record("churn", fmt.Sprintf("/O=Crash/CN=u%06d", i), "compact-crash mutation")
		if err := ds.Audit().JournalError(); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("GEN %d %d\n", ds.Policy().Generation(), ds.Audit().Len())
		// Burst-then-pause: WriteSnapshotAt refuses any snapshot a
		// concurrent append outran, so gapless append-per-microsecond
		// churn can starve the compactor indefinitely (Compact gives up
		// with the stale-snapshot error; the loop retries next tick). Real mutation streams
		// have gaps; give the compactor one every 20 mutations so each
		// run deterministically reaches the stage under test, even at
		// race-detector speed.
		if i%20 == 19 {
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestCompactCrashRecovery kills a child at every stage of a background
// compaction — after the snapshot is staged, after the segment rotates,
// after the snapshot renames live, and after old segments are cleaned —
// and proves recovery from each torn state: every durability claim the
// child printed holds, the audit chain verifies, and the reopened
// journal still compacts and mutates.
func TestCompactCrashRecovery(t *testing.T) {
	for _, stage := range []string{"staged", "rotated", "renamed", "cleaned"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCompactCrashChild$", "-test.timeout=2m")
			cmd.Env = append(os.Environ(), "GSI_CRASH_DIR="+dir, "GSI_CRASH_STAGE="+stage)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Read claims until the self-SIGKILL closes the pipe.
			var lastPolicy, lastAudit uint64
			gens, sawStage := 0, false
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var p, a uint64
				if _, err := fmt.Sscanf(sc.Text(), "GEN %d %d", &p, &a); err == nil {
					lastPolicy, lastAudit = p, a
					gens++
					continue
				}
				var s string
				if _, err := fmt.Sscanf(sc.Text(), "STAGE %s", &s); err == nil && s == stage {
					sawStage = true
				}
			}
			cmd.Wait() // SIGKILL: error expected
			if !sawStage {
				t.Fatalf("child died before the compactor reached stage %q", stage)
			}
			if gens == 0 {
				t.Fatal("child reported no durability claims")
			}

			// Recovery: every claim printed before the kill must hold.
			ds, err := gsi.OpenDurableState(dir)
			if err != nil {
				t.Fatalf("reopen after crash at %q: %v", stage, err)
			}
			pGen, aLen := ds.Policy().Generation(), uint64(ds.Audit().Len())
			if pGen < lastPolicy || aLen < lastAudit {
				t.Fatalf("recovered generations %d/%d below reported %d/%d", pGen, aLen, lastPolicy, lastAudit)
			}
			if bad := ds.Audit().VerifyChain(); bad != -1 {
				t.Fatalf("audit chain broken at event %d after crash at %q", bad, stage)
			}
			// The torn journal must still compact, close, and reopen at
			// identical generations — and keep journaling.
			if err := ds.Compact(); err != nil {
				t.Fatalf("Compact after crash at %q: %v", stage, err)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			ds2, err := gsi.OpenDurableState(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ds2.Close()
			if p2, a2 := ds2.Policy().Generation(), uint64(ds2.Audit().Len()); p2 != pGen || a2 != aLen {
				t.Fatalf("clean restart moved generations: %d/%d, want %d/%d", p2, a2, pGen, aLen)
			}
			if err := ds2.Policy().AddChecked(gsi.Rule{
				ID:        "post-recovery",
				Effect:    gsi.EffectPermit,
				Subjects:  []string{"/O=Crash/CN=after"},
				Resources: []string{"data:/crash/*"},
				Actions:   []string{"read"},
			}); err != nil {
				t.Fatal(err)
			}
			if ds2.Policy().Generation() <= pGen {
				t.Fatal("post-recovery mutation did not advance the generation")
			}
		})
	}
}

// TestCompactNeverLosesRacingMutations is the regression for the
// compaction lost-update race: mutations journal under each object's
// own lock, not the DurableState's, so a record can land between the
// snapshot encode and its write. The WAL must refuse such a stale
// snapshot (Compact re-captures and retries) — an acknowledged,
// journaled mutation must survive compaction-under-churn and a reopen,
// every time.
func TestCompactNeverLosesRacingMutations(t *testing.T) {
	dir := t.TempDir()
	ds, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := ds.Policy().AddChecked(gsi.Rule{
				ID:        fmt.Sprintf("churn-%03d", i),
				Effect:    gsi.EffectPermit,
				Subjects:  []string{fmt.Sprintf("/O=Churn/CN=u%03d", i)},
				Resources: []string{"data:/churn/*"},
				Actions:   []string{"read"},
			}); err != nil {
				t.Errorf("AddChecked(%d): %v", i, err)
				return
			}
			ds.Audit().Record("churn", fmt.Sprintf("/O=Churn/CN=u%03d", i), "")
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			// Under churn Compact may exhaust its retries and report the
			// stale snapshot; that is the correct refusal, not a failure.
			if err := ds.Compact(); err != nil && !errors.Is(err, wal.ErrSnapshotStale) {
				t.Fatalf("Compact under churn: %v", err)
			}
		}
	}
	// Quiescent now: the final compaction must succeed.
	if err := ds.Compact(); err != nil {
		t.Fatalf("quiescent Compact: %v", err)
	}
	pGen, aLen := ds.Policy().Generation(), ds.Audit().Len()
	if pGen != n {
		t.Fatalf("policy generation %d, want %d", pGen, n)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if g := ds2.Policy().Generation(); g != pGen {
		t.Fatalf("reopened policy generation %d, want %d", g, pGen)
	}
	if l := ds2.Audit().Len(); l != aLen {
		t.Fatalf("reopened audit length %d, want %d", l, aLen)
	}
	if bad := ds2.Audit().VerifyChain(); bad != -1 {
		t.Fatalf("audit chain broken at %d after compaction under churn", bad)
	}
}

// TestTraceAuditDurableRoundTrip is the regression for the decision↔
// trace correlation surviving the full durability cycle: a traced
// authorization lands its trace id in the journaled audit chain, and a
// reopen of the directory replays the same event with the same id and
// an intact chain.
func TestTraceAuditDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	authority, err := gsi.NewCA("/O=Grid/CN=Trace CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	alice, err := authority.NewEntity(gsi.MustParseName("/O=Grid/CN=Alice"), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	env, err := gsi.NewEnvironment(gsi.WithRoots(authority.Certificate()))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := env.NewAuthorizationPipeline(gsi.WithDurableState(dir))
	if err != nil {
		t.Fatal(err)
	}
	ds := pipe.DurableState()
	if ds == nil {
		t.Fatal("pipeline has no durable state")
	}
	if err := ds.Policy().AddChecked(gsi.Rule{
		ID:        "alice-read",
		Effect:    gsi.EffectPermit,
		Subjects:  []string{alice.Identity().String()},
		Resources: []string{"data:/trace/*"},
		Actions:   []string{"read"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := ds.GridMap().AddChecked(alice.Identity(), "alice"); err != nil {
		t.Fatal(err)
	}

	tracer := trace.New(trace.Config{})
	sp := tracer.StartRoot("client.exchange")
	tid := sp.Context().TraceID.String()
	ctx := trace.ContextWithSpan(context.Background(), sp)
	d, err := pipe.Authorize(ctx, gsi.Peer{Identity: alice.Identity(), Chain: alice.Chain}, "data:/trace/x", "read")
	if err != nil || d.Decision != gsi.Permit {
		t.Fatalf("authorize: %+v err=%v", d, err)
	}
	sp.End()

	findTraced := func(events []secsvc.AuditEvent) *secsvc.AuditEvent {
		for i := range events {
			if events[i].Trace == tid && strings.HasPrefix(events[i].Event, "authz-") {
				return &events[i]
			}
		}
		return nil
	}
	live := findTraced(ds.Audit().Events())
	if live == nil {
		t.Fatalf("no audit event carries trace %s: %+v", tid, ds.Audit().Events())
	}
	if live.Subject != alice.Identity().String() {
		t.Fatalf("traced event subject %q", live.Subject)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// The correlation must survive the journal round trip.
	ds2, err := gsi.OpenDurableState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	replayed := findTraced(ds2.Audit().Events())
	if replayed == nil {
		t.Fatalf("replayed audit chain lost trace %s", tid)
	}
	if replayed.Hash != live.Hash {
		t.Fatal("replayed traced event differs from the recorded one")
	}
	if bad := ds2.Audit().VerifyChain(); bad != -1 {
		t.Fatalf("replayed audit chain broken at %d", bad)
	}
}
