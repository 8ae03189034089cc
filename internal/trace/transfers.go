// The active-transfer registry: a live table of in-flight bulk
// transfers (facade streams) keyed by a process-local id. Unlike the
// flight recorder — which sees a span only at End — the registry is
// populated at Begin, so the admin plane can answer "what is moving
// right now, for whom, and how far along" while the bytes are still in
// flight.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Transfer is one in-flight bulk operation. Byte accounting is atomic
// so a stream's reading and writing goroutines update one counter
// without a lock.
type Transfer struct {
	id    uint64
	trace TraceID
	op    string
	peer  string
	start time.Time
	bytes atomic.Int64
	reg   *TransferRegistry
}

// Add accumulates moved payload bytes. Nil-safe.
func (t *Transfer) Add(n int64) {
	if t != nil {
		t.bytes.Add(n)
	}
}

// End removes the transfer from its registry. Nil-safe and idempotent.
func (t *Transfer) End() {
	if t == nil || t.reg == nil {
		return
	}
	reg := t.reg
	t.reg = nil
	reg.mu.Lock()
	delete(reg.m, t.id)
	reg.mu.Unlock()
}

// TransferInfo is the queryable snapshot of one active transfer.
type TransferInfo struct {
	// Trace is the owning trace id (lowercase hex; empty when the
	// transfer is not part of a trace).
	Trace string `json:"trace,omitempty"`
	// Op names the operation ("stream:<op>").
	Op string `json:"op"`
	// Peer is the authenticated peer DN.
	Peer string `json:"peer,omitempty"`
	// Bytes counts payload bytes moved so far.
	Bytes int64 `json:"bytes"`
	// Start is when the transfer began.
	Start time.Time `json:"start"`
	// ElapsedUS is the age of the transfer, in microseconds, at
	// snapshot time.
	ElapsedUS int64 `json:"elapsed_us"`
}

// TransferRegistry tracks active transfers. The zero value is ready;
// a nil registry is inert.
type TransferRegistry struct {
	mu  sync.Mutex
	m   map[uint64]*Transfer
	seq uint64
}

// Begin registers an active transfer. tid may be zero when the
// transfer is untraced. Returns nil (inert) on a nil registry.
func (r *TransferRegistry) Begin(op, peer string, tid TraceID) *Transfer {
	if r == nil {
		return nil
	}
	t := &Transfer{trace: tid, op: op, peer: peer, start: time.Now(), reg: r}
	r.mu.Lock()
	r.seq++
	t.id = r.seq
	if r.m == nil {
		r.m = make(map[uint64]*Transfer)
	}
	r.m[t.id] = t
	r.mu.Unlock()
	return t
}

// Len reports the number of active transfers.
func (r *TransferRegistry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Snapshot returns the active transfers, oldest first.
func (r *TransferRegistry) Snapshot() []TransferInfo {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	out := make([]TransferInfo, 0, len(r.m))
	for _, t := range r.m {
		info := TransferInfo{
			Op:        t.op,
			Peer:      t.peer,
			Bytes:     t.bytes.Load(),
			Start:     t.start,
			ElapsedUS: now.Sub(t.start).Microseconds(),
		}
		if !t.trace.IsZero() {
			info.Trace = t.trace.String()
		}
		out = append(out, info)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
