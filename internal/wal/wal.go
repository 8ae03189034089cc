// Package wal is the durable trust plane's write-ahead log: a
// segmented, CRC-framed, append-only record log with snapshot +
// truncate. The authorization stores (policy, gridmap), the CAS
// community state, and the secsvc audit chain all journal through one
// WAL, multiplexed by a record-kind byte, so a single fsync policy and
// a single replay pass govern every piece of security state a restart
// must recover.
//
// On-disk layout (one directory per WAL):
//
//	00000000000000000001.seg   segment files, named by first record seq
//	00000000000000004201.seg
//	SNAPSHOT                   latest state snapshot + covered seq
//
// Record frame, all integers big-endian:
//
//	[u32 payload len][u32 crc][u64 seq][u8 kind][payload]
//
// The CRC (Castagnoli) covers seq, kind, and payload. Sequence numbers
// start at 1 and increment by exactly one across segment boundaries, so
// replay detects reordered, dropped, or spliced records. A torn tail —
// an incomplete or corrupt frame at the end of the LAST segment — is
// the expected crash signature and is repaired by truncation at open;
// the same damage anywhere else is corruption and fails the open, so a
// replayed state is always an exact prefix of what was appended, never
// a fabrication.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MaxPayload bounds one record's payload (matches wire.MaxField: WAL
// payloads are wire-encoded mutations, so nothing legitimate is
// larger).
const MaxPayload = 16 << 20

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize
// is zero.
const DefaultSegmentSize = 4 << 20

// frameHeader is the fixed-size frame prefix: len, crc, seq, kind.
const frameHeader = 4 + 4 + 8 + 1

const (
	segSuffix     = ".seg"
	snapshotName  = "SNAPSHOT"
	snapshotMagic = "walsnap1"
)

// ErrCorrupt reports damage that truncation cannot repair: a bad frame
// anywhere but the tail of the last segment, a sequence discontinuity,
// or a snapshot that fails its checksum. Fail closed: the caller must
// not serve from a log it cannot fully trust.
var ErrCorrupt = errors.New("wal: log corrupt")

// ErrSnapshotStale reports a WriteSnapshotAt whose covered sequence no
// longer matches the log: records were appended between the caller's
// state capture and the snapshot write. Persisting the stale payload
// would truncate acknowledged records it does not contain, so the write
// is refused; re-capture the state and retry.
var ErrSnapshotStale = errors.New("wal: snapshot stale")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appends reach stable storage. The zero value
// is the one durable mode: every Append blocks until its own record is on
// stable storage, so an acknowledged mutation survives kill -9 —
// durability is why the WAL exists. Concurrent Appends share fsyncs
// through a leader/follower commit queue (group commit); a lone writer
// pays exactly one fsync per record. A failed fsync is sticky: the
// affected Appends report it and every later Append is refused, because
// the log can no longer promise durability.
type SyncPolicy uint8

// SyncNever leaves flushing to the OS (tests and fuzzers). Close still
// flushes.
const SyncNever SyncPolicy = 1

// Options parameterize Open.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (0 selects
	// DefaultSegmentSize). A record never splits across segments.
	SegmentSize int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
}

// Record is one replayed log entry. Payload aliases an internal read
// buffer only for the duration of the replay callback; callers that
// retain it must copy.
type Record struct {
	Seq     uint64
	Kind    uint8
	Payload []byte
}

// WAL is an open write-ahead log. Safe for concurrent use; appends are
// serialized.
type WAL struct {
	dir  string
	opts Options

	mu        sync.Mutex
	active    *os.File
	activeSz  int64
	liveBytes int64    // bytes across live segments (≈ journal since snapshot)
	segments  []uint64 // first seq of each live segment, ascending
	nextSeq   uint64

	snapPayload []byte
	snapSeq     uint64
	hasSnap     bool

	closed bool

	// snapMu serializes snapshot writers so the staged tmp file (written
	// outside w.mu to keep appends flowing) has a single owner. Lock
	// order: snapMu before mu.
	snapMu sync.Mutex

	// Group commit. cmu guards the commit queue; it nests
	// inside mu (mu → cmu) and the leader never holds it across the
	// fsync itself.
	cmu       sync.Mutex
	commit    *sync.Cond // signalled when syncedSeq advances or syncErr sets
	syncing   bool       // a leader's fsync is in flight
	syncedSeq uint64     // every record ≤ syncedSeq is on stable storage
	syncErr   error      // sticky: a failed group fsync poisons the log
}

// Open opens (or creates) the WAL in dir, validating every segment: a
// torn tail on the last segment is truncated away, any other damage is
// ErrCorrupt. The log is single-writer; concurrent opens of one
// directory are a deployment error the WAL does not arbitrate.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	w := &WAL{dir: dir, opts: opts, nextSeq: 1}
	w.commit = sync.NewCond(&w.cmu)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if err := w.loadSnapshot(); err != nil {
		return nil, err
	}
	if w.hasSnap {
		w.nextSeq = w.snapSeq + 1
	}
	if err := w.scanSegments(); err != nil {
		return nil, err
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	w.syncedSeq = w.nextSeq - 1 // everything recovered from disk is durable
	return w, nil
}

// loadSnapshot reads and verifies the snapshot file if present.
//
// Snapshot layout: "walsnap1" | u64 covered seq | u32 crc | u32 len | payload.
func (w *WAL) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(w.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) < len(snapshotMagic)+8+4+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
	}
	rest := data[len(snapshotMagic):]
	seq := binary.BigEndian.Uint64(rest)
	sum := binary.BigEndian.Uint32(rest[8:])
	n := binary.BigEndian.Uint32(rest[12:])
	payload := rest[16:]
	if uint64(n) != uint64(len(payload)) {
		return fmt.Errorf("%w: snapshot length mismatch", ErrCorrupt)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	w.snapPayload = payload
	w.snapSeq = seq
	w.hasSnap = true
	return nil
}

// scanSegments validates every segment, repairs a torn tail on the last
// one, and leaves w.segments / w.nextSeq describing the live log.
//
// Beyond per-segment frame checks, it enforces continuity ACROSS
// segments and against the snapshot: every sequence number must be
// accounted for either by a live segment or by the snapshot. A gap the
// snapshot does not cover — a deleted middle segment, or a first
// segment starting past snapSeq+1 — would replay a silently truncated
// history, so it is ErrCorrupt.
func (w *WAL) scanSegments() error {
	names, err := w.segmentNames()
	if err != nil {
		return err
	}
	var prevEnd uint64
	for i, first := range names {
		if i > 0 && first <= prevEnd {
			return fmt.Errorf("%w: segment %020x overlaps its predecessor (ends at record %d)", ErrCorrupt, first, prevEnd)
		}
		if first != prevEnd+1 && (!w.hasSnap || first > w.snapSeq+1) {
			return fmt.Errorf("%w: records %d-%d are on no live segment and no snapshot covers them", ErrCorrupt, prevEnd+1, first-1)
		}
		last := i == len(names)-1
		endSeq, err := w.scanSegment(first, last)
		if err != nil {
			return err
		}
		w.segments = append(w.segments, first)
		if endSeq >= w.nextSeq {
			w.nextSeq = endSeq + 1
		}
		prevEnd = endSeq
	}
	return nil
}

// segmentNames lists segment first-seqs in ascending order.
func (w *WAL) segmentNames() ([]uint64, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: alien segment name %q", ErrCorrupt, name)
		}
		firsts = append(firsts, first)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

func (w *WAL) segPath(first uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%020x%s", first, segSuffix))
}

// scanSegment validates one segment's frames. For the last segment the
// first bad frame is treated as a torn write: the file is truncated at
// the last good offset. Anywhere else it is ErrCorrupt. Returns the
// seq of the segment's last valid record (or first-1 when it holds
// none after truncation).
func (w *WAL) scanSegment(first uint64, last bool) (uint64, error) {
	path := w.segPath(first)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	data, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	wantSeq := first
	offset := 0
	for offset < len(data) {
		n, seq, _, _, ferr := decodeFrame(data[offset:])
		if ferr != nil || seq != wantSeq {
			if last {
				// Torn tail: everything before offset replays; the rest is
				// the crash's half-written frame (or garbage after it,
				// unreachable anyway since frames only chain forward).
				if terr := os.Truncate(path, int64(offset)); terr != nil {
					return 0, terr
				}
				w.liveBytes += int64(offset)
				return wantSeq - 1, nil
			}
			if ferr == nil {
				ferr = fmt.Errorf("record %d where %d expected", seq, wantSeq)
			}
			return 0, fmt.Errorf("%w: segment %020x offset %d: %v", ErrCorrupt, first, offset, ferr)
		}
		offset += n
		wantSeq++
	}
	w.liveBytes += int64(len(data))
	return wantSeq - 1, nil
}

// decodeFrame parses one frame from b, returning its total encoded
// length, seq, kind, and payload.
func decodeFrame(b []byte) (n int, seq uint64, kind uint8, payload []byte, err error) {
	if len(b) < frameHeader {
		return 0, 0, 0, nil, errors.New("short frame header")
	}
	plen := binary.BigEndian.Uint32(b)
	if plen > MaxPayload {
		return 0, 0, 0, nil, fmt.Errorf("payload length %d exceeds cap", plen)
	}
	total := frameHeader + int(plen)
	if len(b) < total {
		return 0, 0, 0, nil, errors.New("short frame payload")
	}
	sum := binary.BigEndian.Uint32(b[4:])
	seq = binary.BigEndian.Uint64(b[8:])
	kind = b[16]
	payload = b[frameHeader:total]
	if crc32.Checksum(b[8:total], castagnoli) != sum {
		return 0, 0, 0, nil, errors.New("crc mismatch")
	}
	return total, seq, kind, payload, nil
}

// openActive opens the last segment for append, or creates the first.
func (w *WAL) openActive() error {
	if len(w.segments) == 0 {
		return w.newSegment()
	}
	first := w.segments[len(w.segments)-1]
	f, err := os.OpenFile(w.segPath(first), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w.active = f
	w.activeSz = st.Size()
	return nil
}

// newSegment rotates to a fresh segment starting at nextSeq. Caller
// holds w.mu (or is Open, pre-publication). Invariant the group-commit
// leader relies on: a segment is synced before it is closed, so every
// record NOT in the current active file is on stable storage.
func (w *WAL) newSegment() error {
	if w.active != nil {
		if err := w.active.Sync(); err != nil {
			return err
		}
		if err := w.active.Close(); err != nil {
			return err
		}
		w.active = nil
		w.markSynced(w.nextSeq - 1)
	}
	f, err := os.OpenFile(w.segPath(w.nextSeq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	w.active = f
	w.activeSz = 0
	w.segments = append(w.segments, w.nextSeq)
	syncDir(w.dir)
	return nil
}

// Append journals one record and returns its sequence number. Unless
// the log was opened SyncNever the record is on stable storage when
// Append returns; the caller applies the mutation only after
// (journal-then-apply).
func (w *WAL) Append(kind uint8, payload []byte) (uint64, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d exceeds %d-byte cap", len(payload), MaxPayload)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errors.New("wal: append on closed log")
	}
	w.cmu.Lock()
	err := w.syncErr
	w.cmu.Unlock()
	if err != nil {
		// The log already failed to make an append durable; writing more
		// records it may never be able to acknowledge would only widen the
		// divergence between the file and the applied state.
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append after failed group commit: %w", err)
	}
	if w.activeSz >= w.opts.SegmentSize {
		if err := w.newSegment(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	seq := w.nextSeq
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint64(frame[8:], seq)
	frame[16] = kind
	copy(frame[frameHeader:], payload)
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	if _, err := w.active.Write(frame); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.activeSz += int64(len(frame))
	w.liveBytes += int64(len(frame))
	w.nextSeq = seq + 1
	w.mu.Unlock()
	if w.opts.Sync != SyncNever {
		if err := w.awaitDurable(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// awaitDurable blocks until record seq is on stable storage, fsyncing
// as the commit leader when no fsync is in flight. Followers whose
// records were written while a leader's fsync was running form the next
// batch — that accumulation is where the group-commit win comes from.
func (w *WAL) awaitDurable(seq uint64) error {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.syncedSeq >= seq {
			return nil
		}
		if w.syncing {
			w.commit.Wait()
			continue
		}
		// Leader: fsync the active file outside both locks — batching
		// emerges from the appends that land while the fsync is in flight.
		// Every record ≤ target is either
		// in the captured file or in an earlier segment, and segments are
		// synced before they are closed — so one successful fsync makes
		// all of them durable.
		w.syncing = true
		w.cmu.Unlock()
		w.mu.Lock()
		target := w.nextSeq - 1
		f := w.active
		w.mu.Unlock()
		var err error
		if f != nil {
			err = f.Sync()
			if err != nil && errors.Is(err, os.ErrClosed) {
				// A rotation (or Close) took the file between capture and
				// fsync — but it synced the file first, so records ≤ target
				// are durable regardless.
				err = nil
			}
		}
		w.cmu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
		} else if target > w.syncedSeq {
			w.syncedSeq = target
		}
		w.commit.Broadcast()
	}
}

// markSynced records that every record ≤ seq is on stable storage and
// wakes group-commit waiters. Safe to call with w.mu held (mu → cmu).
func (w *WAL) markSynced(seq uint64) {
	w.cmu.Lock()
	if seq > w.syncedSeq {
		w.syncedSeq = seq
		w.commit.Broadcast()
	}
	w.cmu.Unlock()
}

// Stats describes the journal's growth since its last snapshot, for
// compaction policies that watch bytes/records rather than guessing.
type Stats struct {
	Segments             int    // live segment files
	LastSeq              uint64 // most recent record (0 on a fresh log)
	SnapshotSeq          uint64 // last record the snapshot covers (0 if none)
	RecordsSinceSnapshot uint64
	BytesSinceSnapshot   int64 // frame bytes across live segments
}

// Stats reports the journal's current shape.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{
		Segments:             len(w.segments),
		LastSeq:              w.nextSeq - 1,
		SnapshotSeq:          w.snapSeq,
		RecordsSinceSnapshot: w.nextSeq - 1 - w.snapSeq,
		BytesSinceSnapshot:   w.liveBytes,
	}
}

// LastSeq reports the sequence number of the most recent record (0
// before the first append on a fresh log).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Snapshot returns the latest snapshot payload and the seq it covers
// (records ≤ seq are folded into it). ok is false when none exists.
func (w *WAL) Snapshot() (payload []byte, seq uint64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.hasSnap {
		return nil, 0, false
	}
	return w.snapPayload, w.snapSeq, true
}

// Replay iterates every record after the snapshot's covered seq, in
// order. The callback's Record.Payload is only valid for the call.
// Stop early by returning an error (it is passed through).
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	segments := append([]uint64(nil), w.segments...)
	snapSeq := w.snapSeq
	w.mu.Unlock()
	for _, first := range segments {
		data, err := os.ReadFile(w.segPath(first))
		if err != nil {
			return err
		}
		offset := 0
		for offset < len(data) {
			n, seq, kind, payload, ferr := decodeFrame(data[offset:])
			if ferr != nil {
				// Open validated and repaired; damage appearing between
				// then and now is corruption, not a torn tail.
				return fmt.Errorf("%w: segment %020x offset %d: %v", ErrCorrupt, first, offset, ferr)
			}
			if seq > snapSeq {
				if err := fn(Record{Seq: seq, Kind: kind, Payload: payload}); err != nil {
					return err
				}
			}
			offset += n
		}
	}
	return nil
}

// WriteSnapshotAt atomically records payload as the state through
// covered and truncates every fully covered segment, bounding the log's
// disk footprint. The snapshot lands via rename, so a crash mid-write
// leaves the previous snapshot (and the segments it needs) intact.
//
// The caller reads LastSeq, encodes its state, and passes that sequence
// as covered. If any record landed in between — the payload cannot
// account for it, and truncating its segment would lose an acknowledged
// durable mutation — the write is refused with ErrSnapshotStale and the
// caller re-captures and retries.
//
// The expensive part — writing and fsyncing the snapshot payload — runs
// OUTSIDE the append lock, so a large snapshot stalls concurrent
// mutations only for the commit step (rotate, rename, cleanup: a few
// fixed-cost syscalls), which is the bounded mutation-stall budget the
// background compactor relies on. The staleness check runs twice:
// cheaply before staging the payload, and authoritatively under the
// lock at commit.
func (w *WAL) WriteSnapshotAt(payload []byte, covered uint64) error {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	if last := w.LastSeq(); last != covered {
		return fmt.Errorf("%w: state captured at seq %d, log now at %d", ErrSnapshotStale, covered, last)
	}
	w.mu.Lock()
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return errors.New("wal: snapshot on closed log")
	}
	tmp, err := w.stageSnapshot(payload, covered)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		os.Remove(tmp)
		return errors.New("wal: snapshot on closed log")
	}
	if covered != w.nextSeq-1 {
		os.Remove(tmp)
		return fmt.Errorf("%w: state captured at seq %d, log now at %d", ErrSnapshotStale, covered, w.nextSeq-1)
	}
	return w.commitSnapshotLocked(payload, covered, tmp)
}

// SnapshotStageHook, when non-nil, is called after each stage of a
// snapshot write ("staged", "rotated", "renamed", "cleaned"). Test
// instrumentation: crash-consistency tests have a child process report
// the stage so the parent can SIGKILL it mid-compaction. Nil in
// production; set before any snapshot activity, never concurrently.
var SnapshotStageHook func(stage string)

func snapshotStage(stage string) {
	if SnapshotStageHook != nil {
		SnapshotStageHook(stage)
	}
}

// stageSnapshot writes the framed snapshot payload to the tmp file and
// fsyncs it. Caller holds snapMu (sole tmp owner) but need not hold
// w.mu. Returns the tmp path for commitSnapshotLocked to rename.
func (w *WAL) stageSnapshot(payload []byte, covered uint64) (string, error) {
	buf := make([]byte, 0, len(snapshotMagic)+16+len(payload))
	buf = append(buf, snapshotMagic...)
	buf = binary.BigEndian.AppendUint64(buf, covered)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)

	tmp := filepath.Join(w.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	snapshotStage("staged")
	return tmp, nil
}

// commitSnapshotLocked publishes a staged snapshot: rotate so the
// active segment starts past covered, rename the tmp into place, drop
// covered segments. Caller holds w.mu and has verified covered ==
// nextSeq-1; every step is a fixed-cost syscall, so this is the whole
// of the mutation stall a snapshot imposes.
func (w *WAL) commitSnapshotLocked(payload []byte, covered uint64, tmp string) error {
	// Rotate first: the active segment then starts at covered+1, and
	// every earlier segment is fully covered by the snapshot.
	if w.activeSz > 0 {
		if err := w.newSegment(); err != nil {
			os.Remove(tmp)
			return err
		}
	} else if w.active != nil {
		if err := w.active.Sync(); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	snapshotStage("rotated")

	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(w.dir)
	snapshotStage("renamed")

	w.snapPayload = append([]byte(nil), payload...)
	w.snapSeq = covered
	w.hasSnap = true
	w.markSynced(covered)

	// Drop segments whose every record the snapshot now covers: all but
	// the active (last) one, since rotation pinned its first seq at
	// covered+1. The segment list is updated first and removal is
	// best-effort cleanup — an undeletable covered segment must not
	// leave w.segments referencing files already gone from disk, and a
	// leftover file is harmless: the next Open rescans it (the covered
	// gap rule in scanSegments tolerates it) and replay skips its
	// records.
	drop := w.segments[:len(w.segments)-1]
	w.segments = append([]uint64(nil), w.segments[len(w.segments)-1:]...)
	for _, first := range drop {
		os.Remove(w.segPath(first))
	}
	syncDir(w.dir)
	w.liveBytes = w.activeSz
	snapshotStage("cleaned")
	return nil
}

// Close syncs and closes the active segment. Appends after Close fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.active == nil {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		w.active.Close()
		return err
	}
	w.markSynced(w.nextSeq - 1)
	return w.active.Close()
}

// syncDir fsyncs a directory so renames and creates are durable;
// best-effort on filesystems that refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
