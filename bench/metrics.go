package main

// The metric catalogue. BENCHMARK.json lists the same names; the
// determinism test checks the two agree.

type metricDef struct {
	name, unit string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndDefs are what a user of the system would see; every workload
// reports all of them. The five time-based ones are all reported at
// reference speed: on ten runs per workload the division tightened or
// left unchanged every one of them (README.md has the table), so none
// is reported as the clock read it.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KB"},
	{"live_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerDefs are the single-layer numbers of the traced run, grouped
// by the module they watch. A metric the workload has no source for
// (a phase it does not run) reads 0.
var perLayerDefs = []metricDef{
	// pkg/gsi phases of a short job (p50 self time).
	{"gsi.proxy_init_us", "us"}, {"gsi.submit_job_us", "us"}, {"gsi.connect_cold_us", "us"},
	{"gsi.stage_in_us", "us"}, {"gsi.status_us", "us"}, {"gsi.close_us", "us"},
	{"gsi.phase_coverage", "ratio"},
	// session pool and handshakes, from the program's own statistics.
	{"pool.hits", "count"}, {"pool.dials", "count"}, {"pool.hit_ratio", "ratio"}, {"pool.evictions", "count"},
	{"gss.resumed", "count"}, {"gss.full_handshakes", "count"},
	// gss
	{"gss.handshake_us", "us"}, {"gss.resume_handshake_us", "us"},
	// gridcert
	{"gridcert.verify_chain_us", "us"}, {"gridcert.verify_cached_ns", "ns"}, {"gridcert.verify_allocs", "count"},
	// gridcrypto
	{"gridcrypto.sign_us", "us"}, {"gridcrypto.verify_us", "us"}, {"gridcrypto.key_agreement_us", "us"},
	{"gridcrypto.seal_1k_ns", "ns"}, {"gridcrypto.open_1k_ns", "ns"},
	{"gridcrypto.seal_mb_per_s", "MB/s"}, {"gridcrypto.open_mb_per_s", "MB/s"},
	// record / wire
	{"record.roundtrip_1k_ns", "ns"}, {"record.allocs_1k", "count"}, {"wire.frame_roundtrip_ns", "ns"},
	{"record.stream_mb_per_s", "MB/s"}, {"record.pipeline_mb_per_s", "MB/s"}, {"record.stream_allocs_per_mb", "count"},
	// gsitransport and the host under it
	{"gsitransport.exchange_rtt_us", "us"}, {"gsitransport.stripe_join_us", "us"},
	{"net.lo_bytes_per_op", "B"}, {"net.lo_packets_per_op", "count"}, {"os.vol_ctx_switches_per_op", "count"},
	// gridftp legs of a bulk transfer
	{"gridftp.put_single_mb_per_s", "MB/s"}, {"gridftp.get_single_mb_per_s", "MB/s"},
	{"gridftp.put_striped_mb_per_s", "MB/s"}, {"gridftp.get_striped_mb_per_s", "MB/s"},
	{"gridftp.striped_over_single", "ratio"}, {"gridftp.allocs_per_leg", "count"}, {"gridftp.leg_coverage", "ratio"}, {"gridftp.leg_retries", "count"},
	// proxy / gram / xmlsec / soap / ogsa / wssec
	{"proxy.new_us", "us"}, {"proxy.delegation_us", "us"},
	{"gram.submit_us", "us"}, {"gram.run_us", "us"}, {"gram.grim_runs", "count"},
	{"xmlsec.sign_envelope_us", "us"}, {"xmlsec.verify_envelope_us", "us"},
	{"ogsa.invoke_signed_us", "us"}, {"wssec.conversation_exchange_us", "us"},
	// the authorization pipeline, internal/authz and cas
	{"authz.decide_cold_us", "us"}, {"authz.decide_cold_allocs", "count"}, {"authz.decide_hit_ns", "ns"},
	{"authz.cache_hits", "count"}, {"authz.cache_misses", "count"}, {"authz.cache_hit_ratio", "ratio"},
	{"authz.policy_eval_us", "us"}, {"authz.gridmap_lookup_ns", "ns"},
	{"cas.check_assertion_us", "us"}, {"cas.replica_lookup_ns", "ns"},
	// trust-plane writes and what set-up replays
	{"authz.write_p50_us", "us"}, {"wal.append_p50_us", "us"}, {"wal.records", "count"}, {"wal.bytes", "B"},
	{"cas.delta_apply_us", "us"}, {"cas.delta_bytes", "B"}, {"cas.full_apply_ms", "ms"}, {"cas.full_apply_allocs", "count"},
	{"setup.replay_ms", "ms"}, {"setup.serve_ms", "ms"}, {"setup.first_sync_ms", "ms"}, {"setup.first_op_ms", "ms"},
	// telemetry / trace
	{"trace.overhead_ratio", "ratio"}, {"telemetry.scrape_ms", "ms"},
	// run health
	{"e2e.op_p99_us", "us"}, {"e2e.op_max_us", "us"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.goroutines_end", "count"},
	{"machine.speed_factor_min", "ratio"}, {"machine.speed_factor_med", "ratio"}, {"machine.steal_ms", "ms"},
	{"os.invol_ctx_switches", "count"},
	{"bench.worldgen_s", "s"}, {"bench.clients", "count"}, {"bench.stripes", "count"},
	{"raw.ops_per_s", "1/s"}, {"raw.op_p50_us", "us"}, {"raw.cpu_us_per_op", "us"},
}

func (r *result) endToEnd() map[string]float64 {
	t := r.timing(true, false)
	ops, mallocs, bytes := r.untracedTotals()
	perOp := func(v uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(v) / float64(ops)
	}
	return map[string]float64{
		"setup_s":         t.setupS,
		"ops_per_s":       t.opsPerS,
		"op_p50_us":       t.p50us,
		"op_p90_us":       t.p90us,
		"cpu_us_per_op":   t.cpuUS,
		"allocs_per_op":   perOp(mallocs),
		"alloc_kb_per_op": perOp(bytes) / 1024,
		"live_heap_mb":    r.liveHeapMB,
		"peak_rss_mb":     r.peakRSSMB,
	}
}

func (r *result) perLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for k, v := range r.probes {
		m[k] = v
	}
	tr := r.tr
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Phases of a short job, and how much of the op they cover.
	phases := []string{"gsi.proxy_init", "gsi.submit_job", "gsi.connect_cold", "gsi.stage_in", "gsi.status", "gsi.close"}
	if r.cfg.workload == "short_jobs" {
		covered := 0.0
		for _, p := range phases {
			m[p+"_us"] = tr.selfP50(p)
			covered += tr.selfSum(p)
		}
		m["gsi.phase_coverage"] = ratio(covered, covered+tr.selfSum("op"))
	}

	// GridFTP legs: bytes moved over the leg's median time.
	if r.cfg.workload == "bulk_transfer" {
		mb := float64(r.cfg.sc.bulkBytes) / 1e6
		covered := 0.0
		for _, leg := range bulkLegs {
			m[leg+"_mb_per_s"] = ratio(mb, tr.selfP50(leg)/1e6)
			covered += tr.selfSum(leg)
		}
		single := m["gridftp.put_single_mb_per_s"] + m["gridftp.get_single_mb_per_s"]
		m["gridftp.striped_over_single"] = ratio(m["gridftp.put_striped_mb_per_s"]+m["gridftp.get_striped_mb_per_s"], single)
		m["gridftp.allocs_per_leg"] = ratio(r.counters["gridftp.leg_allocs"], r.counters["gridftp.legs_traced"])
		m["gridftp.leg_coverage"] = ratio(covered, covered+tr.selfSum("op"))
	}

	if r.cfg.workload == "authz_churn" {
		m["authz.write_p50_us"] = tr.selfP50("authz.write")
		m["cas.delta_bytes"] = ratio(r.counters["cas.delta_bytes_total"], r.counters["cas.deltas"])
	}

	for _, k := range []string{"pool.hits", "pool.dials", "pool.evictions", "gss.resumed", "gss.full_handshakes",
		"gram.grim_runs", "authz.cache_hits", "authz.cache_misses", "wal.records", "wal.bytes", "gridftp.leg_retries"} {
		m[k] = r.counters[k]
	}
	m["pool.hit_ratio"] = ratio(m["pool.hits"], m["pool.hits"]+m["pool.dials"])
	m["authz.cache_hit_ratio"] = ratio(m["authz.cache_hits"], m["authz.cache_hits"]+m["authz.cache_misses"])
	if v, ok := r.counters["authz.prefix_hit_ratio"]; ok {
		m["authz.cache_hit_ratio"] = ratio(v, float64(r.cfg.reps))
	}

	for _, part := range []string{"setup.replay", "setup.serve", "setup.first_sync", "setup.first_op"} {
		m[part+"_ms"] = tr.totalP50(part) / 1e3
	}

	ops := float64(r.timedOps)
	m["net.lo_bytes_per_op"] = ratio(float64(r.lo.bytes), ops)
	m["net.lo_packets_per_op"] = ratio(float64(r.lo.packets), ops)
	m["os.vol_ctx_switches_per_op"] = ratio(float64(r.volSwitches), float64(r.attempted))
	m["os.invol_ctx_switches"] = float64(r.involSwitches)

	corrected, raw := r.timing(true, false), r.timing(false, false)
	m["trace.overhead_ratio"] = ratio(r.timing(true, true).opsPerS, corrected.opsPerS)
	m["e2e.op_p99_us"] = corrected.p99us
	m["e2e.op_max_us"] = corrected.maxus
	m["raw.ops_per_s"] = raw.opsPerS
	m["raw.op_p50_us"] = raw.p50us
	m["raw.cpu_us_per_op"] = raw.cpuUS

	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_pause_ms"] = r.gcPauseMS
	m["runtime.goroutines_end"] = float64(r.goroutines)
	m["machine.speed_factor_min"], m["machine.speed_factor_med"], _ = r.factors()
	m["machine.steal_ms"] = r.stealMS
	m["bench.worldgen_s"] = r.worldgenS
	m["bench.clients"] = float64(benchClients)
	m["bench.stripes"] = float64(benchStripes())
	return m
}
