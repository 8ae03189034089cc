package gsi

import (
	"errors"
	"fmt"
	"sync"

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
}

// OpenDurableState opens (or creates) the durable trust plane rooted at
// dir: the WAL is replayed — snapshot first, then every journaled
// mutation — into fresh Policy, GridMap, and AuditLog objects, the
// audit hash chain is re-verified end to end, and the objects are bound
// so subsequent mutations journal through the log with fsync-before-
// apply semantics. Fail closed: corruption anywhere but a torn final
// record refuses to open.
func OpenDurableState(dir string) (*DurableState, error) {
	const op = "gsi.OpenDurableState"
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
	return ds, nil
}

// JournalStats describes the durable journal's shape, for the admin
// surface and compaction tuning.
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
}

// JournalStats reports the journal's current shape.
func (d *DurableState) JournalStats() JournalStats {
	st := d.w.Stats()
	return JournalStats{
		Segments:             st.Segments,
		LastSeq:              st.LastSeq,
		SnapshotSeq:          st.SnapshotSeq,
		RecordsSinceSnapshot: st.RecordsSinceSnapshot,
		BytesSinceSnapshot:   st.BytesSinceSnapshot,
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
		return nil
	}
	if s.authzLocal != nil || s.authzGridMap != nil {
		return errors.New("gsi: WithDurableState cannot combine with WithLocalPolicy or WithGridMap; mutate the durable objects via Server.DurableState instead")
	}
	ds, err := OpenDurableState(s.durableDir)
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

// Close syncs and closes the journal. The bound objects refuse further
// mutations (journaling into a closed WAL errors), which is the correct
// fail-closed posture for a trust plane that can no longer persist.
func (d *DurableState) Close() error { return d.w.Close() }
