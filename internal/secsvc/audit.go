// Package secsvc holds the audit service of the paper's §4.1 (after the
// OGSA Security Roadmap): "a service that securely logs relevant
// information about events", cast as a Grid service so a hosting
// environment can publish it and the durable state can journal it.
package secsvc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/ogsa"
	"repro/internal/wire"
)

// AuditEvent is one securely logged event.
type AuditEvent struct {
	Seq     uint64
	Time    time.Time
	Event   string
	Subject string
	Detail  string
	// Trace is the distributed trace id active when the event was
	// recorded (empty when tracing is off). It is part of the hash
	// chain: an auditor correlating a decision with its trace can trust
	// the linkage as much as the decision itself.
	Trace string
	// Hash chains the event to its predecessor: SHA-256 over the previous
	// hash and this event's fields. Truncating or rewriting the log
	// breaks the chain.
	Hash [32]byte
}

// AuditLog is the audit service of §4.1: "a service that securely logs
// relevant information about events." Integrity comes from a hash chain;
// the container feeds it via the ogsa.AuditSink interface.
type AuditLog struct {
	*ogsa.Base

	mu         sync.RWMutex
	events     []AuditEvent
	last       [32]byte
	journal    func(AuditEvent) error
	journalErr error
	dropped    uint64
}

// NewAuditLog creates an empty log.
func NewAuditLog() *AuditLog {
	return &AuditLog{Base: ogsa.NewBase()}
}

var _ ogsa.AuditSink = (*AuditLog)(nil)

// SetJournal installs a persistence hook called with every event BEFORE
// it enters the in-memory chain, under the log's lock, so journal order
// equals chain order. Record cannot return an error (the AuditSink
// contract), so a journal failure drops the event from the chain too —
// keeping it would hash every later event through a record the journal
// never saw, and the seq/hash gap would refuse the next restore,
// bricking the durable state over one transient disk error. The drop is
// surfaced through JournalError / DroppedJournal instead of being
// swallowed; chain and journal always describe the same events.
func (l *AuditLog) SetJournal(fn func(AuditEvent) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = fn
}

// JournalError reports the most recent journal failure, nil if every
// event reached the journal.
func (l *AuditLog) JournalError() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.journalErr
}

// DroppedJournal counts events dropped entirely — from journal and
// chain alike — because their journal write failed.
func (l *AuditLog) DroppedJournal() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.dropped
}

// Record implements ogsa.AuditSink.
func (l *AuditLog) Record(event, subject, detail string) {
	l.RecordTrace(event, subject, detail, "")
}

// RecordTrace is Record carrying the active trace id, hash-chained with
// the rest of the event.
func (l *AuditLog) RecordTrace(event, subject, detail, trace string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := AuditEvent{
		Seq:     uint64(len(l.events)),
		Time:    time.Now().UTC(),
		Event:   event,
		Subject: subject,
		Detail:  detail,
		Trace:   trace,
	}
	e.Hash = hashEvent(l.last, e)
	// Journal-then-apply, like every other durable store: the event
	// enters the chain only once it is on stable storage, so the
	// on-disk log is always restorable. A dropped event's seq is reused
	// by the next one — the journaled chain stays gapless.
	if l.journal != nil {
		if err := l.journal(e); err != nil {
			l.journalErr = err
			l.dropped++
			return
		}
	}
	l.events = append(l.events, e)
	l.last = e.Hash
}

func hashEvent(prev [32]byte, e AuditEvent) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|%s", e.Seq, e.Time.UnixNano(), e.Event, e.Subject, e.Detail, e.Trace)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Len reports the number of events.
func (l *AuditLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.events)
}

// Events returns a copy of the log.
func (l *AuditLog) Events() []AuditEvent {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]AuditEvent(nil), l.events...)
}

// VerifyChain recomputes the hash chain, returning the index of the first
// corrupted event, or -1 if the log is intact.
func (l *AuditLog) VerifyChain() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var prev [32]byte
	for i, e := range l.events {
		if hashEvent(prev, e) != e.Hash {
			return i
		}
		prev = e.Hash
	}
	return -1
}

// Restore replaces the log's contents with replayed events, verifying
// the full hash chain first. Fail closed: a replayed log whose chain
// does not verify — tampered payloads, reordered or missing records —
// leaves the current log untouched and reports the first bad index.
func (l *AuditLog) Restore(events []AuditEvent) error {
	var prev [32]byte
	for i, e := range events {
		if e.Seq != uint64(i) {
			return fmt.Errorf("secsvc: replayed audit event %d carries seq %d", i, e.Seq)
		}
		if hashEvent(prev, e) != e.Hash {
			return fmt.Errorf("secsvc: replayed audit chain corrupt at %d", i)
		}
		prev = e.Hash
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append([]AuditEvent(nil), events...)
	l.last = prev
	return nil
}

const auditEventCodecVersion = 1

// EncodeAuditEvent serialises one event for a WAL payload.
func EncodeAuditEvent(e AuditEvent) []byte {
	enc := wire.NewEncoder()
	enc.U8(auditEventCodecVersion)
	enc.U64(e.Seq)
	enc.I64(e.Time.UnixNano())
	enc.Str(e.Event)
	enc.Str(e.Subject)
	enc.Str(e.Detail)
	enc.Str(e.Trace)
	enc.Bytes(e.Hash[:])
	return enc.Finish()
}

// DecodeAuditEvent parses a journaled event. The hash is carried, not
// recomputed — Restore verifies the whole chain.
func DecodeAuditEvent(b []byte) (AuditEvent, error) {
	d := wire.NewDecoder(b)
	var e AuditEvent
	if v := d.U8(); d.Err() == nil && v != auditEventCodecVersion {
		return e, fmt.Errorf("secsvc: unknown audit event codec version %d", v)
	}
	e.Seq = d.U64()
	e.Time = time.Unix(0, d.I64()).UTC()
	e.Event = d.Str()
	e.Subject = d.Str()
	e.Detail = d.Str()
	e.Trace = d.Str()
	hash := d.Bytes()
	if err := d.Done(); err != nil {
		return AuditEvent{}, err
	}
	if len(hash) != len(e.Hash) {
		return AuditEvent{}, fmt.Errorf("secsvc: audit event hash is %d bytes, want %d", len(hash), len(e.Hash))
	}
	copy(e.Hash[:], hash)
	return e, nil
}

// Invoke implements ogsa.Service.
//
// Operations:
//
//	Count:  → decimal number of events
//	Verify: → "intact" or "corrupt at <i>"
//	Query:  body = event-name filter → newline-separated matching entries
func (l *AuditLog) Invoke(call *ogsa.Call) ([]byte, error) {
	if reply, handled, err := l.HandleStandardOp(call); handled {
		return reply, err
	}
	switch call.Op {
	case "Count":
		return []byte(fmt.Sprintf("%d", l.Len())), nil
	case "Verify":
		if i := l.VerifyChain(); i >= 0 {
			return []byte(fmt.Sprintf("corrupt at %d", i)), nil
		}
		return []byte("intact"), nil
	case "Query":
		filter := string(call.Body)
		var buf bytes.Buffer
		for _, e := range l.Events() {
			if filter == "" || e.Event == filter {
				fmt.Fprintf(&buf, "%d %s %s %s %s\n", e.Seq, e.Time.Format(time.RFC3339), e.Event, e.Subject, e.Detail)
			}
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("secsvc: audit has no op %q", call.Op)
	}
}
