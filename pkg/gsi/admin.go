package gsi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/gsitransport"
	"repro/internal/record"
)

// adminBackend implements ogsa.AdminBackend over the facade's live
// state: it is what a gsictl call reaches after the container has
// authorized it against local policy and the admin service has enforced
// the channel rules. Built per endpoint by the server's container hook;
// pool and registry are whatever the operator attached, so each method
// degrades to a clear error when its state was never configured rather
// than inventing empty answers.
type adminBackend struct {
	server   *Server
	pipeline *AuthorizationPipeline
	reg      *MetricsRegistry // nil without WithMetrics
	pool     *SessionPool     // nil without WithAdminPool
	tracer   *Tracer          // nil without WithTracing
}

// adminStats is the Stats op's JSON shape — a point-in-time snapshot of
// every subsystem the observability plane watches. Optional sections
// are omitted when their subsystem is not configured, so a consumer can
// distinguish "zero activity" from "not present".
type adminStats struct {
	Identity string `json:"identity"`

	Pool *PoolStats `json:"pool,omitempty"`

	Resumption *struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
	} `json:"resumption,omitempty"`

	AuthzCache *DecisionCacheStats `json:"authz_cache,omitempty"`

	Conversations struct {
		Live    uint64 `json:"live"`
		Evicted uint64 `json:"evicted"`
	} `json:"conversations"`

	Reload *struct {
		Reloads  uint64               `json:"reloads"`
		Failures uint64               `json:"failures"`
		Sources  []ReloadSourceStatus `json:"sources"`
	} `json:"reload,omitempty"`

	RecordPool struct {
		Gets     uint64 `json:"gets"`
		Misses   uint64 `json:"misses"`
		Oversize uint64 `json:"oversize"`
		Frees    uint64 `json:"frees"`
	} `json:"record_pool"`

	Transport struct {
		RecordsSent     uint64 `json:"records_sent"`
		RecordsReceived uint64 `json:"records_received"`
		BytesSent       uint64 `json:"bytes_sent"`
		BytesReceived   uint64 `json:"bytes_received"`
	} `json:"transport"`
}

func (b *adminBackend) AdminStats() ([]byte, error) {
	snap := adminStats{Identity: b.server.Identity().String()}
	if b.pool != nil {
		ps := b.pool.Stats()
		snap.Pool = &ps
		rs := b.pool.ResumptionStats()
		snap.Resumption = &struct {
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
			Entries int    `json:"entries"`
		}{Hits: rs.Hits, Misses: rs.Misses, Entries: rs.Len}
	}
	cs := b.pipeline.CacheStats()
	snap.AuthzCache = &cs
	snap.Conversations.Live, snap.Conversations.Evicted = b.server.src.conversations()
	if r := b.server.currentReloader(); r != nil {
		st := r.Stats()
		snap.Reload = &struct {
			Reloads  uint64               `json:"reloads"`
			Failures uint64               `json:"failures"`
			Sources  []ReloadSourceStatus `json:"sources"`
		}{Reloads: st.Reloads, Failures: st.Failures, Sources: r.Status()}
	}
	rp := record.PoolStats()
	snap.RecordPool.Gets, snap.RecordPool.Misses = rp.Gets, rp.Misses
	snap.RecordPool.Oversize, snap.RecordPool.Frees = rp.Oversize, rp.Frees
	tp := gsitransport.Throughput()
	snap.Transport.RecordsSent, snap.Transport.RecordsReceived = tp.RecordsSent, tp.RecordsReceived
	snap.Transport.BytesSent, snap.Transport.BytesReceived = tp.BytesSent, tp.BytesReceived
	return json.MarshalIndent(snap, "", "  ")
}

func (b *adminBackend) AdminMetrics() ([]byte, error) {
	if b.reg == nil {
		return nil, errors.New("gsi: no metrics registry configured (WithMetrics)")
	}
	var buf bytes.Buffer
	if err := b.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (b *adminBackend) AdminRetire(fingerprint string) ([]byte, error) {
	if b.pool == nil {
		return nil, errors.New("gsi: no session pool attached to the admin surface (WithAdminPool)")
	}
	drained, err := b.pool.RetireFingerprint(fingerprint)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf(`{"retired":%q,"drained":%d}`, fingerprint, drained)), nil
}

func (b *adminBackend) AdminDrain() ([]byte, error) {
	if b.pool == nil {
		return nil, errors.New("gsi: no session pool attached to the admin surface (WithAdminPool)")
	}
	return []byte(fmt.Sprintf(`{"drained":%d}`, b.pool.DrainIdle())), nil
}

// adminTraceQuery is the Traces op's JSON request shape, mirrored by
// gsictl traces. An empty body selects the slowest DefaultQueryN spans.
type adminTraceQuery struct {
	N          int    `json:"n,omitempty"`
	Op         string `json:"op,omitempty"`
	Peer       string `json:"peer,omitempty"`
	ErrorsOnly bool   `json:"errors_only,omitempty"`
	Trace      string `json:"trace,omitempty"`
}

func (b *adminBackend) AdminTraces(query []byte) ([]byte, error) {
	if b.tracer == nil {
		return nil, errors.New("gsi: no tracer configured (WithTracing)")
	}
	var q adminTraceQuery
	if len(bytes.TrimSpace(query)) > 0 {
		if err := json.Unmarshal(query, &q); err != nil {
			return nil, fmt.Errorf("gsi: bad trace query: %w", err)
		}
	}
	spans := b.tracer.Recorder().Snapshot(TraceQuery{
		N:          q.N,
		Op:         q.Op,
		Peer:       q.Peer,
		ErrorsOnly: q.ErrorsOnly,
		TraceID:    q.Trace,
	})
	return json.MarshalIndent(spans, "", "  ")
}

func (b *adminBackend) AdminCASStatus() ([]byte, error) {
	cs := b.server.currentCASSyncer()
	if cs == nil {
		return nil, errors.New("gsi: no CAS upstream configured on this server (WithCASUpstream)")
	}
	return cs.statusJSON()
}

func (b *adminBackend) AdminCASSync() ([]byte, error) {
	cs := b.server.currentCASSyncer()
	if cs == nil {
		return nil, errors.New("gsi: no CAS upstream configured on this server (WithCASUpstream)")
	}
	// Like AdminReload: a failed pull is not a failed op. The caller asked
	// "pull now and tell me how it went"; on failure the previous bundle
	// stays live and the error is the answer.
	err := cs.syncOnce()
	report := struct {
		OK    bool   `json:"ok"`
		Error string `json:"error,omitempty"`
		CASSyncStatus
	}{OK: err == nil, CASSyncStatus: cs.status()}
	if err != nil {
		report.Error = err.Error()
	}
	return json.MarshalIndent(report, "", "  ")
}

func (b *adminBackend) AdminCompact() ([]byte, error) {
	ds := b.server.DurableState()
	if ds == nil {
		return nil, errors.New("gsi: no durable state on this server (WithDurableState)")
	}
	// Like AdminReload: the caller asked "compact now and tell me how it
	// went". A failed compaction (sustained mutation churn) leaves the
	// journal intact, and the error plus the journal's shape is the
	// answer, not an op error.
	err := ds.Compact()
	report := struct {
		OK    bool   `json:"ok"`
		Error string `json:"error,omitempty"`
		JournalStats
	}{OK: err == nil, JournalStats: ds.JournalStats()}
	if err != nil {
		report.Error = err.Error()
	}
	return json.MarshalIndent(report, "", "  ")
}

func (b *adminBackend) AdminReload() ([]byte, error) {
	r := b.server.currentReloader()
	if r == nil {
		return nil, errors.New("gsi: no reload configuration on this server (WithReload)")
	}
	// A failed source is not a failed op: the caller asked "re-read
	// everything and tell me how it went", and per-source outcomes —
	// previous state live on failure — are the answer.
	err := r.Reload()
	report := struct {
		OK      bool                 `json:"ok"`
		Error   string               `json:"error,omitempty"`
		Sources []ReloadSourceStatus `json:"sources"`
	}{OK: err == nil, Sources: r.Status()}
	if err != nil {
		report.Error = err.Error()
	}
	return json.MarshalIndent(report, "", "  ")
}
