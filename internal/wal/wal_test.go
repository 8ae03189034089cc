package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/israce"
)

func replayAll(t *testing.T, w *WAL) []Record {
	t.Helper()
	var out []Record
	if err := w.Replay(func(r Record) error {
		out = append(out, Record{Seq: r.Seq, Kind: r.Kind, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("mutation-%03d", i))
		seq, err := w.Append(uint8(i%7), payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d for append %d", seq, i)
		}
		want = append(want, Record{Seq: seq, Kind: uint8(i % 7), Payload: payload})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if w2.LastSeq() != 100 {
		t.Fatalf("LastSeq = %d, want 100", w2.LastSeq())
	}
	// Appends resume at the replayed seq — identical numbering after a
	// restart, as the generation counters riding on it require.
	seq, err := w2.Append(1, []byte("after-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 101 {
		t.Fatalf("post-restart seq = %d, want 101", seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	w2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2); len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(2, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a torn write: chop the last frame mid-payload.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-3); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("torn tail must repair, not fail: %v", err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(got))
	}
	if w2.LastSeq() != 9 {
		t.Fatalf("LastSeq = %d, want 9", w2.LastSeq())
	}
	// The repaired log accepts appends at the rewound seq.
	if seq, err := w2.Append(1, []byte("fresh")); err != nil || seq != 10 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
}

func TestBitFlipMidSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := w.Append(1, bytes.Repeat([]byte("p"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	// Flip a payload bit in the FIRST segment: not a torn tail, so the
	// open must refuse the whole log rather than silently dropping or
	// mutating history.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log bit flip: got %v, want ErrCorrupt", err)
	}
}

func TestMissingMiddleSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := w.Append(1, bytes.Repeat([]byte("m"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Delete a MIDDLE segment: every remaining segment is internally
	// valid, but replaying around the hole would fabricate a spliced
	// history. No snapshot covers the gap, so the open must refuse.
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing middle segment: got %v, want ErrCorrupt", err)
	}
}

func TestFirstSegmentPastSnapshotIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.Append(1, bytes.Repeat([]byte("g"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteSnapshotAt([]byte("state-through-6"), w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	// Records 7-8 live only in the post-snapshot segment.
	for i := 0; i < 2; i++ {
		if _, err := w.Append(1, []byte("tail")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Replace the post-snapshot segment with one starting two records
	// later: the gap 7-8 is past the snapshot's coverage, so opening
	// must not silently resume from record 9.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 live segment, got %d", len(segs))
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%020x%s", 9, segSuffix)), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("first segment past snapshot coverage: got %v, want ErrCorrupt", err)
	}
}

func TestLeftoverCoveredSegmentTolerated(t *testing.T) {
	// A crash (or EPERM) between snapshot rename and covered-segment
	// removal leaves fully covered segments on disk. They are garbage,
	// not corruption: the open must succeed and replay must skip them.
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := w.Append(1, bytes.Repeat([]byte("c"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	// Preserve the covered segments past the snapshot's cleanup.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	saved := map[string][]byte{}
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		saved[s] = b
	}
	if err := w.WriteSnapshotAt([]byte("state-through-12"), w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(2, []byte("after-snap")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	for s, b := range saved {
		if _, err := os.Stat(s); err == nil {
			continue
		}
		if err := os.WriteFile(s, b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	w2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatalf("leftover covered segments must be tolerated: %v", err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != 1 || got[0].Seq != 13 || string(got[0].Payload) != "after-snap" {
		t.Fatalf("replay over leftover covered segments = %+v", got)
	}
}

func TestWriteSnapshotAtRefusesStaleState(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		if _, err := w.Append(1, []byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	captured := w.LastSeq()
	// A mutation lands between the caller's state capture and the
	// snapshot write: persisting the stale payload would truncate an
	// acknowledged record it does not contain.
	if _, err := w.Append(1, []byte("raced")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshotAt([]byte("stale"), captured); !errors.Is(err, ErrSnapshotStale) {
		t.Fatalf("stale snapshot: got %v, want ErrSnapshotStale", err)
	}
	if _, _, ok := w.Snapshot(); ok {
		t.Fatal("refused snapshot must not land")
	}
	// Re-captured, it succeeds and the raced record stays replayable
	// state (folded into the fresh payload's coverage).
	if err := w.WriteSnapshotAt([]byte("fresh"), w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if payload, seq, ok := w.Snapshot(); !ok || seq != 6 || string(payload) != "fresh" {
		t.Fatalf("snapshot = %q seq=%d ok=%v", payload, seq, ok)
	}
}

func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := w.Append(1, bytes.Repeat([]byte("s"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	state := []byte("state-through-30")
	if err := w.WriteSnapshotAt(state, w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("snapshot should leave 1 segment, got %d", len(segs))
	}
	// Post-snapshot appends replay; covered ones do not.
	if _, err := w.Append(2, []byte("after-snap")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	payload, seq, ok := w2.Snapshot()
	if !ok || seq != 30 || !bytes.Equal(payload, state) {
		t.Fatalf("snapshot = %q seq=%d ok=%v", payload, seq, ok)
	}
	got := replayAll(t, w2)
	if len(got) != 1 || got[0].Seq != 31 || string(got[0].Payload) != "after-snap" {
		t.Fatalf("post-snapshot replay = %+v", got)
	}
	if w2.LastSeq() != 31 {
		t.Fatalf("LastSeq = %d, want 31", w2.LastSeq())
	}
}

func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshotAt([]byte("good"), w.LastSeq()); err != nil {
		t.Fatal(err)
	}
	w.Close()
	path := filepath.Join(dir, "SNAPSHOT")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorrupt", err)
	}
}

func TestPayloadCap(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(1, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload must be refused")
	}
}

// TestGroupCommitConcurrentAppendsDurable is the group-commit
// correctness test: many writers appending concurrently must each
// get a unique sequence, and every acknowledged record must replay
// after a reopen — the batching may coalesce fsyncs, never skip them.
func TestGroupCommitConcurrentAppendsDurable(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	seqs := make(chan uint64, writers*each)
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			for i := 0; i < each; i++ {
				seq, err := w.Append(1, []byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					errs <- err
					return
				}
				seqs <- seq
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < writers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("sequence %d acknowledged twice", s)
		}
		seen[s] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("%d acknowledged sequences, want %d", len(seen), writers*each)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := replayAll(t, w2)
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d (gap or reorder)", i, r.Seq)
		}
		if !seen[r.Seq] {
			t.Fatalf("replayed seq %d was never acknowledged", r.Seq)
		}
	}
}

// TestGroupCommitAcrossRotation drives concurrent batched appends
// through many segment rotations: a follower whose segment was synced
// and closed by rotation mid-batch must still be acknowledged, and
// everything must replay in order.
func TestGroupCommitAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 40
	errs := make(chan error, writers)
	payload := make([]byte, 64)
	for g := 0; g < writers; g++ {
		go func() {
			for i := 0; i < each; i++ {
				if _, err := w.Append(1, payload); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < writers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 2 {
		t.Fatalf("only %d segments — rotation never happened, test proves nothing", st.Segments)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := replayAll(t, w2); len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}

// TestGroupCommitClosedLogRefused: appends racing Close either complete
// durably or fail — after Close returns, new appends must error, not
// hang waiting on a commit that will never run.
func TestGroupCommitClosedLogRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, []byte("after")); err == nil {
		t.Fatal("append on closed log must fail")
	}
}

func TestFrameLengthLieRejected(t *testing.T) {
	// A frame whose length field claims more payload than the cap must
	// be rejected before any allocation is sized from it.
	var b [frameHeader]byte
	binary.BigEndian.PutUint32(b[:], MaxPayload+1)
	if _, _, _, _, err := decodeFrame(b[:]); err == nil {
		t.Fatal("oversized length field must fail decode")
	}
}

// TestAppendAllocs: a durable append allocates its frame buffer and
// nothing else — group commit never buys throughput with garbage.
func TestAppendAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("race instrumentation allocates; exactness only holds in plain builds")
	}
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 128)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := w.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("durable append allocates %.2f/op, want <= 1", allocs)
	}
}
