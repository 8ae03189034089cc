package gsi

import (
	"sync"
	"time"

	"repro/internal/gsitransport"
	"repro/internal/gss"
	"repro/internal/record"
	"repro/internal/telemetry"
	"repro/internal/wssec"
)

// MetricsRegistry collects the facade's instruments and renders them in
// Prometheus text exposition format (WritePrometheus; it is also an
// http.Handler). Registries are cheap scrape-time views: the hot-path
// counters live in the instrumented packages as plain atomics, and a
// registry samples them only when scraped.
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry creates an empty registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// --- process-wide instruments -------------------------------------------
//
// Handshake/resume latency, record-pool pressure, and transport
// throughput are process-wide state (package atomics in internal/gss,
// internal/record, internal/gsitransport), so their instruments are
// process-wide singletons: every registry that wants them registers the
// same objects, which telemetry treats as idempotent.

var (
	processOnce    sync.Once
	processMetrics []telemetry.Metric
)

func buildProcessMetrics() []telemetry.Metric {
	processOnce.Do(func() {
		handshake := telemetry.NewHistogram("gsi_handshake_seconds",
			"Full security-context establishment latency (public-key handshake), both transports.",
			telemetry.LatencyBuckets)
		resume := telemetry.NewHistogram("gsi_resume_seconds",
			"Secure-conversation resumption latency (one symmetric-crypto round trip).",
			telemetry.LatencyBuckets)
		// The observers cost two atomic loads per handshake until this
		// runs — and a handshake is public-key work, so the histogram
		// update is noise even afterwards.
		gss.SetHandshakeObserver(handshake.ObserveDuration)
		gss.SetResumeObserver(resume.ObserveDuration)
		processMetrics = []telemetry.Metric{
			handshake, resume,
			telemetry.NewCounterFunc("gsi_record_pool_gets_total",
				"Record-layer buffer checkouts (pooled or not).",
				func() uint64 { return record.PoolStats().Gets }),
			telemetry.NewCounterFunc("gsi_record_pool_misses_total",
				"Buffer checkouts that found their size-class pool empty and allocated.",
				func() uint64 { return record.PoolStats().Misses }),
			telemetry.NewCounterFunc("gsi_record_pool_oversize_total",
				"Buffer checkouts beyond the largest size class (unpooled allocations).",
				func() uint64 { return record.PoolStats().Oversize }),
			telemetry.NewCounterFunc("gsi_record_pool_frees_total",
				"Buffers returned to their size-class pool.",
				func() uint64 { return record.PoolStats().Frees }),
			telemetry.NewCounterFunc("gsi_transport_records_sent_total",
				"Protected records written by the GT2 transport.",
				func() uint64 { return gsitransport.Throughput().RecordsSent }),
			telemetry.NewCounterFunc("gsi_transport_records_received_total",
				"Protected records read by the GT2 transport.",
				func() uint64 { return gsitransport.Throughput().RecordsReceived }),
			telemetry.NewCounterFunc("gsi_transport_bytes_sent_total",
				"Plaintext payload bytes sent over the GT2 transport.",
				func() uint64 { return gsitransport.Throughput().BytesSent }),
			telemetry.NewCounterFunc("gsi_transport_bytes_received_total",
				"Plaintext payload bytes received over the GT2 transport.",
				func() uint64 { return gsitransport.Throughput().BytesReceived }),
		}
	})
	return processMetrics
}

// trustMetrics builds the environment's trust-store series, once: all of
// its handles register these same objects, which a registry allows.
func (e *Environment) trustMetrics() []telemetry.Metric {
	return []telemetry.Metric{
		telemetry.NewCounterFunc(labeled("gsi_cert_signature_checks_total", e.id),
			"Certificate and assertion signatures the environment's trust store verified on the curve.",
			func() uint64 { return e.trust.SignatureStats().Checks }),
		telemetry.NewCounterFunc(labeled("gsi_cert_signature_memo_hits_total", e.id),
			"Certificate and assertion signatures the trust store recognised as verified before (no curve work).",
			func() uint64 { return e.trust.SignatureStats().MemoHits }),
		telemetry.NewGaugeFunc(labeled("gsi_cert_signature_memo_entries", e.id),
			"Verified signatures the trust store remembers, in two bounded generations.",
			func() float64 { return float64(e.trust.SignatureStats().Entries) }),
		telemetry.NewCounterFunc(labeled("gsi_cert_signature_memo_rotations_total", e.id),
			"Memo generations retired; with checks rising and entries at the bound, the working set is larger than the memo.",
			func() uint64 { return e.trust.SignatureStats().Rotations }),
	}
}

// metricID renders the id label value for a handle's per-handle series:
// the credential's grid identity (end-entity DN), which — unlike a leaf
// fingerprint — survives proxy rotation, so a managed client keeps one
// series across renewals.
func metricID(cred *Credential) string {
	if cred == nil {
		return "anonymous"
	}
	return telemetry.EscapeLabelValue(cred.Identity().String())
}

func labeled(family, id string) string {
	return family + `{id="` + id + `"}`
}

// registerClientMetrics lands a client handle's instruments in reg:
// the process-wide and environment sets plus per-handle pool, resumption-
// cache, and credential-lifecycle series labeled with the client's identity.
func registerClientMetrics(reg *MetricsRegistry, env *Environment, id string, pool *SessionPool, cm *CredentialManager) error {
	ms := append(append([]telemetry.Metric(nil), buildProcessMetrics()...), env.series...)
	if pool != nil {
		ms = append(ms, poolMetrics(id, pool)...)
	}
	if cm != nil {
		ms = append(ms, credentialMetrics(id, cm)...)
	}
	return reg.Register(ms...)
}

func poolMetrics(id string, pool *SessionPool) []telemetry.Metric {
	return []telemetry.Metric{
		telemetry.NewCounterFunc(labeled("gsi_pool_dials_total", id),
			"Sessions established by the pool (each paid a handshake or a resumption).",
			func() uint64 { return pool.Stats().Dials }),
		telemetry.NewCounterFunc(labeled("gsi_pool_hits_total", id),
			"Checkouts satisfied from the idle pool (no handshake).",
			func() uint64 { return pool.Stats().Hits }),
		telemetry.NewCounterFunc(labeled("gsi_pool_evictions_total", id),
			"Idle sessions discarded as stale, unhealthy, probe-failed, or drained.",
			func() uint64 { return pool.Stats().Evictions }),
		telemetry.NewCounterFunc(labeled("gsi_pool_poisoned_total", id),
			"Sessions discarded at return because an exchange left them unsafe.",
			func() uint64 { return pool.Stats().Poisoned }),
		telemetry.NewCounterFunc(labeled("gsi_pool_retired_total", id),
			"Sessions discarded because their credential was rotated away.",
			func() uint64 { return pool.Stats().Retired }),
		telemetry.NewGaugeFunc(labeled("gsi_pool_idle", id),
			"Sessions currently parked idle across all keys.",
			func() float64 { return float64(pool.Stats().Idle) }),
		telemetry.NewGaugeFunc(labeled("gsi_pool_active", id),
			"Sessions currently checked out across all keys.",
			func() float64 { return float64(pool.Stats().Active) }),
		telemetry.NewCounterFunc(labeled("gsi_resume_cache_hits_total", id),
			"Conversations minted by secure-conversation resumption.",
			func() uint64 { return pool.ResumptionStats().Hits }),
		telemetry.NewCounterFunc(labeled("gsi_resume_cache_misses_total", id),
			"Conversations that paid the full WS-Trust bootstrap.",
			func() uint64 { return pool.ResumptionStats().Misses }),
		telemetry.NewGaugeFunc(labeled("gsi_resume_cache_entries", id),
			"Parent conversations currently cached for resumption.",
			func() float64 { return float64(pool.ResumptionStats().Len) }),
	}
}

func credentialMetrics(id string, cm *CredentialManager) []telemetry.Metric {
	return []telemetry.Metric{
		telemetry.NewCounterFunc(labeled("gsi_credential_rotations_total", id),
			"Successful credential renewals (rotations).",
			func() uint64 { return cm.Stats().Rotations }),
		telemetry.NewCounterFunc(labeled("gsi_credential_renew_failures_total", id),
			"Failed renewal attempts (each retried with backoff).",
			func() uint64 { return cm.Stats().Failures }),
		telemetry.NewGaugeFunc(labeled("gsi_credential_ttl_seconds", id),
			"Remaining lifetime of the managed credential; renewal lead time when positive.",
			func() float64 { return time.Until(cm.Stats().NotAfter).Seconds() }),
	}
}

// serverMetricSources is the mutable state a server handle's gauges
// sample: conversation managers accrete one per GT3 endpoint, and the
// reloader appears when the first endpoint wires it.
type serverMetricSources struct {
	mu       sync.Mutex
	convMgrs []*wssec.ConversationManager
	reloader *Reloader
	casSync  *casSyncer
}

func (s *serverMetricSources) addConvMgr(m *wssec.ConversationManager) {
	s.mu.Lock()
	s.convMgrs = append(s.convMgrs, m)
	s.mu.Unlock()
}

func (s *serverMetricSources) setReloader(r *Reloader) {
	s.mu.Lock()
	s.reloader = r
	s.mu.Unlock()
}

func (s *serverMetricSources) setCASSyncer(cs *casSyncer) {
	s.mu.Lock()
	s.casSync = cs
	s.mu.Unlock()
}

func (s *serverMetricSources) casStatus() CASSyncStatus {
	s.mu.Lock()
	cs := s.casSync
	s.mu.Unlock()
	if cs == nil {
		return CASSyncStatus{}
	}
	return cs.status()
}

func (s *serverMetricSources) conversations() (live, evicted uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.convMgrs {
		live += uint64(m.Sessions())
		evicted += m.Evicted()
	}
	return live, evicted
}

func (s *serverMetricSources) reloadStats() (ok bool, st ReloadStats, unhealthy int) {
	s.mu.Lock()
	r := s.reloader
	s.mu.Unlock()
	if r == nil {
		return false, ReloadStats{}, 0
	}
	st = r.Stats()
	for _, src := range r.Status() {
		if !src.Healthy {
			unhealthy++
		}
	}
	return true, st, unhealthy
}

// registerServerMetrics lands a server handle's instruments in reg:
// the process-wide set plus decision-cache, conversation-table, and
// reload series labeled with the server's identity. The pipeline may
// be nil (no authorization configured); src must not be.
func registerServerMetrics(reg *MetricsRegistry, env *Environment, id string, pipeline *AuthorizationPipeline, src *serverMetricSources) error {
	ms := append(append([]telemetry.Metric(nil), buildProcessMetrics()...), env.series...)
	if pipeline != nil {
		ms = append(ms,
			telemetry.NewCounterFunc(labeled("gsi_authz_cache_hits_total", id),
				"Authorization decisions served from the decision cache.",
				func() uint64 { return pipeline.CacheStats().Hits }),
			telemetry.NewCounterFunc(labeled("gsi_authz_cache_misses_total", id),
				"Authorization decisions that paid a full pipeline evaluation.",
				func() uint64 { return pipeline.CacheStats().Misses }),
			telemetry.NewGaugeFunc(labeled("gsi_authz_cache_entries", id),
				"Decisions currently cached across all shards.",
				func() float64 { return float64(pipeline.CacheStats().Len) }),
			telemetry.NewGaugeFunc(labeled("gsi_authz_cache_max_shard", id),
				"Entry count of the fullest decision-cache shard (shard pressure).",
				func() float64 { return float64(pipeline.CacheStats().MaxShard) }),
			telemetry.NewCounterFunc(labeled("gsi_authz_generation", id),
				"Sum of the trust/policy/gridmap/VO/replica generation counters; each step is one cache-wide invalidation.",
				func() uint64 {
					g := pipeline.generations()
					return g[0] + g[1] + g[2] + g[3] + g[4]
				}),
		)
		if log := pipeline.auditLog(); log != nil {
			ms = append(ms, telemetry.NewCounterFunc(labeled("gsi_audit_dropped_total", id),
				"Decision audit events dropped because the journal refused them; /healthz reports the error.",
				log.DroppedJournal))
		}
		if rep := pipeline.Replica(); rep != nil {
			ms = append(ms,
				telemetry.NewGaugeFunc(labeled("gsi_cas_bundle_version", id),
					"Version of the last CAS policy bundle the replica applied (0 = none yet).",
					func() float64 { return float64(rep.Version()) }),
				telemetry.NewCounterFunc(labeled("gsi_cas_bundle_applied_total", id),
					"CAS policy bundles applied through the fail-closed swap (the replica generation).",
					func() uint64 { return rep.Generation() }),
				telemetry.NewCounterFunc(labeled("gsi_cas_sync_total", id),
					"Successful CAS bundle pulls (up-to-date counts as success).",
					func() uint64 { return src.casStatus().Syncs }),
				telemetry.NewCounterFunc(labeled("gsi_cas_sync_failures_total", id),
					"Sync rounds in which every configured CAS endpoint failed; the previous bundle stayed live each time.",
					func() uint64 { return src.casStatus().Failures }),
				telemetry.NewGaugeFunc(labeled("gsi_cas_last_sync_seconds", id),
					"Duration of the last successful CAS pull, request to applied; after a restart, how long the replica vouched for nobody.",
					func() float64 { return src.casStatus().LastPullMillis / 1e3 }),
			)
		}
	}
	ms = append(ms,
		telemetry.NewGaugeFunc(labeled("gsi_conversations", id),
			"Live server-side secure-conversation contexts across this handle's endpoints.",
			func() float64 { live, _ := src.conversations(); return float64(live) }),
		telemetry.NewCounterFunc(labeled("gsi_conversations_evicted_total", id),
			"Server-side conversation contexts evicted to honor the session-table cap.",
			func() uint64 { _, evicted := src.conversations(); return evicted }),
		telemetry.NewCounterFunc(labeled("gsi_reload_total", id),
			"Successful configuration-file reloads.",
			func() uint64 { ok, st, _ := src.reloadStats(); _ = ok; return st.Reloads }),
		telemetry.NewCounterFunc(labeled("gsi_reload_failures_total", id),
			"Reload attempts that failed; the previous configuration stayed live each time.",
			func() uint64 { _, st, _ := src.reloadStats(); return st.Failures }),
		telemetry.NewGaugeFunc(labeled("gsi_reload_unhealthy_sources", id),
			"Watched configuration files whose last reload attempt failed.",
			func() float64 { _, _, unhealthy := src.reloadStats(); return float64(unhealthy) }),
	)
	return reg.Register(ms...)
}
