package gsi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/secsvc"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The durable trust plane (PR 9): policy, gridmap, audit chain, and CAS
// state journal through one segmented write-ahead log, so a restarted
// server resumes with the exact rule set, mapfile, audit chain, and —
// critically — the exact generation counters it crashed with. Identical
// generations mean the sharded decision cache re-warms naturally
// instead of stampeding the cold path, and replicas never observe a
// bundle version moving backwards.

// AuditLog is the paper's §4.1 audit service with its tamper-evident
// hash chain (see secsvc). A DurableState's log journals every event.
type AuditLog = secsvc.AuditLog

// AuditEvent is one hash-chained entry of an AuditLog, as returned by
// AuditLog.Events.
type AuditEvent = secsvc.AuditEvent

// Shared-WAL record kinds: one log carries all three subsystems'
// records, discriminated by kind.
const (
	kindAuthz uint8 = 1 // authz.Mutation (policy + gridmap)
	kindAudit uint8 = 2 // secsvc.AuditEvent
	kindCAS   uint8 = 3 // cas mutation (membership, roles, VO policy)
)

const durableSnapshotVersion = 1

// DurableState is one directory of durable trust-plane state: a WAL
// plus the live objects bound to it. Obtain one with OpenDurableState
// (or implicitly via the WithDurableState server option), mutate the
// Policy/GridMap/Audit as usual — every mutation is journaled before it
// applies — and Compact periodically to bound replay time.
type DurableState struct {
	mu  sync.Mutex
	w   *wal.WAL
	dir string

	policy  *Policy
	gridmap *GridMap
	audit   *AuditLog

	cas *CASServer
	// casSnap and casBacklog preserve replayed CAS state until a server
	// attaches: the snapshot's encoded state and every kindCAS record
	// seen since, in order.
	casSnap    []byte
	casBacklog [][]byte

	// Background compaction (WithAutoCompact).
	compactStop chan struct{}
	compactDone chan struct{}
	stopOnce    sync.Once

	cmu            sync.Mutex
	autoCompacts   uint64
	lastCompactErr string
}

// DefaultAutoCompactInterval is how often the background compactor
// checks the journal against its thresholds when
// AutoCompactConfig.Interval is zero.
const DefaultAutoCompactInterval = 5 * time.Second

// OpenDurableState opens (or creates) the durable trust plane rooted at
// dir: the WAL is replayed — snapshot first, then every journaled
// mutation — into fresh Policy, GridMap, and AuditLog objects, the
// audit hash chain is re-verified end to end, and the objects are bound
// so subsequent mutations journal through the log with fsync-before-
// apply semantics. Fail closed: corruption anywhere but a torn final
// record refuses to open.
//
// The one option honored here is WithAutoCompact; others do not apply
// to a bare durable state and are ignored, matching the Option contract.
func OpenDurableState(dir string, opts ...Option) (*DurableState, error) {
	const op = "gsi.OpenDurableState"
	var cfg settings
	if err := cfg.apply(opts); err != nil {
		return nil, opErr(op, err)
	}
	return openDurable(op, dir, cfg.autoCompact)
}

func openDurable(op, dir string, autoCompact *AutoCompactConfig) (*DurableState, error) {
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, opErr(op, err)
	}
	ds := &DurableState{
		w:       w,
		dir:     dir,
		policy:  authz.NewPolicy(authz.DenyOverrides),
		gridmap: authz.NewGridMap(),
		audit:   secsvc.NewAuditLog(),
	}
	var auditEvents []secsvc.AuditEvent
	if snap, _, ok := w.Snapshot(); ok {
		auditEvents, err = ds.restoreSnapshot(snap)
		if err != nil {
			w.Close()
			return nil, opErr(op, err)
		}
	}
	err = w.Replay(func(rec wal.Record) error {
		switch rec.Kind {
		case kindAuthz:
			m, err := authz.DecodeMutation(rec.Payload)
			if err != nil {
				return err
			}
			return authz.ApplyMutation(m, ds.policy, ds.gridmap)
		case kindAudit:
			e, err := secsvc.DecodeAuditEvent(rec.Payload)
			if err != nil {
				return err
			}
			auditEvents = append(auditEvents, e)
			return nil
		case kindCAS:
			ds.casBacklog = append(ds.casBacklog, append([]byte(nil), rec.Payload...))
			return nil
		default:
			return fmt.Errorf("gsi: journal record %d has unknown kind %d", rec.Seq, rec.Kind)
		}
	})
	if err != nil {
		w.Close()
		return nil, opErr(op, err)
	}
	// Restore re-verifies the whole hash chain — the replayed trail is
	// trusted exactly as far as its chain proves.
	if err := ds.audit.Restore(auditEvents); err != nil {
		w.Close()
		return nil, opErr(op, err)
	}
	store := walStore{w: w}
	ds.policy.Bind(store)
	ds.gridmap.Bind(store)
	ds.audit.SetJournal(func(e secsvc.AuditEvent) error {
		_, err := w.Append(kindAudit, secsvc.EncodeAuditEvent(e))
		return err
	})
	if autoCompact != nil {
		ds.startAutoCompact(*autoCompact)
	}
	return ds, nil
}

// startAutoCompact launches the background compactor: each tick reads
// the journal's growth since its last snapshot and runs Compact once a
// threshold is crossed. Compact stages the snapshot payload off the
// mutation path, so writers stall only for the final rotate/rename. A
// failed compaction (e.g. sustained churn exhausting the stale-snapshot
// retries) is recorded and retried next tick; the journal stays intact.
func (d *DurableState) startAutoCompact(cfg AutoCompactConfig) {
	interval := cfg.Interval
	if interval <= 0 {
		interval = DefaultAutoCompactInterval
	}
	d.compactStop = make(chan struct{})
	d.compactDone = make(chan struct{})
	go func() {
		defer close(d.compactDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.compactStop:
				return
			case <-t.C:
				st := d.w.Stats()
				due := (cfg.MaxBytes > 0 && st.BytesSinceSnapshot >= cfg.MaxBytes) ||
					(cfg.MaxRecords > 0 && st.RecordsSinceSnapshot >= cfg.MaxRecords)
				if !due || st.RecordsSinceSnapshot == 0 {
					continue
				}
				err := d.Compact()
				d.cmu.Lock()
				if err != nil {
					d.lastCompactErr = err.Error()
				} else {
					d.autoCompacts++
					d.lastCompactErr = ""
				}
				d.cmu.Unlock()
			}
		}
	}()
}

// JournalStats describes the durable journal's shape and the background
// compactor's history, for the admin surface and compaction tuning.
type JournalStats struct {
	// Segments, LastSeq, and SnapshotSeq mirror the journal's on-disk
	// shape: live segment files, the newest record, and the last record
	// the snapshot covers.
	Segments    int    `json:"segments"`
	LastSeq     uint64 `json:"last_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// RecordsSinceSnapshot and BytesSinceSnapshot measure replay debt —
	// what a restart would re-apply.
	RecordsSinceSnapshot uint64 `json:"records_since_snapshot"`
	BytesSinceSnapshot   int64  `json:"bytes_since_snapshot"`
	// AutoCompactions counts background compactions since open;
	// LastCompactError is the most recent background failure ("" after a
	// success).
	AutoCompactions  uint64 `json:"auto_compactions"`
	LastCompactError string `json:"last_compact_error,omitempty"`
}

// JournalStats reports the journal's current shape.
func (d *DurableState) JournalStats() JournalStats {
	st := d.w.Stats()
	d.cmu.Lock()
	defer d.cmu.Unlock()
	return JournalStats{
		Segments:             st.Segments,
		LastSeq:              st.LastSeq,
		SnapshotSeq:          st.SnapshotSeq,
		RecordsSinceSnapshot: st.RecordsSinceSnapshot,
		BytesSinceSnapshot:   st.BytesSinceSnapshot,
		AutoCompactions:      d.autoCompacts,
		LastCompactError:     d.lastCompactErr,
	}
}

// materializeDurable opens the WithDurableState directory and
// substitutes the durable objects into the pipeline assembly slots, so
// newPipeline builds over the journaled policy and gridmap and the
// decision trail lands in the journaled audit chain.
// Combining with WithLocalPolicy/WithGridMap is refused: two sources of
// truth for one policy, and the ad-hoc one would silently win.
func (s *settings) materializeDurable() error {
	if s.durableDir == "" {
		if s.autoCompact != nil {
			return errors.New("gsi: WithAutoCompact configures the durable journal; it requires WithDurableState")
		}
		return nil
	}
	if s.authzLocal != nil || s.authzGridMap != nil {
		return errors.New("gsi: WithDurableState cannot combine with WithLocalPolicy or WithGridMap; mutate the durable objects via Server.DurableState instead")
	}
	ds, err := openDurable("gsi.OpenDurableState", s.durableDir, s.autoCompact)
	if err != nil {
		return err
	}
	s.durable = ds
	s.authzLocal = ds.Policy()
	s.authzGridMap = ds.GridMap()
	if s.authzAudit == nil && !s.authzAuditOff {
		s.authzAudit = ds.Audit()
	}
	return nil
}

// walStore journals authz mutations as kindAuthz records.
type walStore struct{ w *wal.WAL }

func (s walStore) Journal(m authz.Mutation) error {
	_, err := s.w.Append(kindAuthz, m.Encode())
	return err
}

// Policy returns the durable local policy (bound: every mutation
// journals first).
func (d *DurableState) Policy() *Policy { return d.policy }

// GridMap returns the durable grid-mapfile.
func (d *DurableState) GridMap() *GridMap { return d.gridmap }

// Audit returns the durable audit log; use it as the pipeline's audit
// sink to land the decision trail in the journal.
func (d *DurableState) Audit() *AuditLog { return d.audit }

// LastSeq reports the journal's last record sequence number.
func (d *DurableState) LastSeq() uint64 { return d.w.LastSeq() }

// AttachCAS binds a community server to the durable state: CAS state
// replayed from the journal (snapshot plus every journaled mutation) is
// restored into server, and its subsequent mutations journal as kindCAS
// records. At most one server may attach.
func (d *DurableState) AttachCAS(server *CASServer) error {
	const op = "gsi.DurableState.AttachCAS"
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cas != nil {
		return opErr(op, errors.New("gsi: a CAS server is already attached"))
	}
	if len(d.casSnap) > 0 {
		if err := server.RestoreState(d.casSnap); err != nil {
			return opErr(op, err)
		}
	}
	for i, p := range d.casBacklog {
		if err := server.ApplyReplayed(p); err != nil {
			return opErr(op, fmt.Errorf("gsi: replaying CAS journal record %d: %w", i, err))
		}
	}
	server.SetJournal(func(payload []byte) error {
		_, err := d.w.Append(kindCAS, payload)
		return err
	})
	d.cas = server
	d.casSnap = nil
	d.casBacklog = nil
	return nil
}

// Compact folds the journal into one snapshot — current policy,
// gridmap, audit chain, and CAS state — and truncates the segments it
// covers, bounding replay time after the next restart. Mutations racing
// the compaction are detected, never lost: the journal position is
// captured before the state is encoded, and the WAL refuses the
// snapshot if any record landed past it (the encoded payload could not
// account for it), in which case Compact re-captures and retries. Under
// sustained mutation churn it gives up after a few attempts and reports
// the stale-snapshot error; the journal is untouched either way.
func (d *DurableState) Compact() error {
	const op = "gsi.DurableState.Compact"
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		covered := d.w.LastSeq()
		err = d.w.WriteSnapshotAt(d.encodeSnapshotLocked(), covered)
		if !errors.Is(err, wal.ErrSnapshotStale) {
			break
		}
	}
	if err != nil {
		return opErr(op, err)
	}
	return nil
}

// encodeSnapshotLocked captures the combined snapshot payload; the
// caller holds d.mu. Each object's EncodeState takes that object's own
// lock, and every store journals-then-applies under that same lock — so
// the captured state contains a mutation if and only if its record's
// seq is at most the LastSeq read before encoding began, which is
// exactly the invariant WriteSnapshotAt enforces.
func (d *DurableState) encodeSnapshotLocked() []byte {
	e := wire.NewEncoder()
	e.U8(durableSnapshotVersion)
	e.Bytes(d.policy.EncodeState())
	e.Bytes(d.gridmap.EncodeState())
	events := d.audit.Events()
	e.U32(uint32(len(events)))
	for _, ev := range events {
		e.Bytes(secsvc.EncodeAuditEvent(ev))
	}
	casState := d.casSnap
	backlog := d.casBacklog
	if d.cas != nil {
		casState = d.cas.EncodeState()
		backlog = nil
	}
	e.Bytes(casState)
	e.U32(uint32(len(backlog)))
	for _, p := range backlog {
		e.Bytes(p)
	}
	return e.Finish()
}

// maxSnapshotAuditEvents bounds decoded snapshot audit trails (a
// corrupt count must not size an allocation).
const maxSnapshotAuditEvents = 1 << 24

// restoreSnapshot applies a combined snapshot payload, returning the
// audit events it carried (the caller appends journaled events and
// Restores the chain once).
func (d *DurableState) restoreSnapshot(snap []byte) ([]secsvc.AuditEvent, error) {
	dec := wire.NewDecoder(snap)
	if v := dec.U8(); dec.Err() == nil && v != durableSnapshotVersion {
		return nil, fmt.Errorf("gsi: unknown durable snapshot version %d", v)
	}
	policyState := dec.Bytes()
	gridmapState := dec.Bytes()
	n := dec.Count("snapshot audit event", maxSnapshotAuditEvents)
	events := make([]secsvc.AuditEvent, 0, min(n, 4096))
	for i := 0; i < n && dec.Err() == nil; i++ {
		e, err := secsvc.DecodeAuditEvent(dec.Bytes())
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	casState := dec.Bytes()
	bn := dec.Count("snapshot CAS record", maxSnapshotAuditEvents)
	backlog := make([][]byte, 0, min(bn, 4096))
	for i := 0; i < bn && dec.Err() == nil; i++ {
		backlog = append(backlog, append([]byte(nil), dec.Bytes()...))
	}
	if err := dec.Done(); err != nil {
		return nil, err
	}
	if err := d.policy.RestoreState(policyState); err != nil {
		return nil, err
	}
	if err := d.gridmap.RestoreState(gridmapState); err != nil {
		return nil, err
	}
	if len(casState) > 0 {
		d.casSnap = append([]byte(nil), casState...)
	}
	d.casBacklog = backlog
	return events, nil
}

// Close stops the background compactor, then syncs and closes the
// journal. The bound objects refuse further mutations (journaling into
// a closed WAL errors), which is the correct fail-closed posture for a
// trust plane that can no longer persist.
func (d *DurableState) Close() error {
	if d.compactStop != nil {
		d.stopOnce.Do(func() {
			close(d.compactStop)
			<-d.compactDone
		})
	}
	return d.w.Close()
}
