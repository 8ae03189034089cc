GO ?= go

.PHONY: ci fmt-check vet build test test-multicore race fuzz-smoke bench bench-pool bench-credman bench-authz bench-record bench-stripe bench-telemetry bench-trace bench-scale bench-ctrlplane gate-allocs fmt

## ci: the tier-1 gate — format check, vet, build, test (plus the
## GOMAXPROCS matrix over the striped data plane: the same tests must
## pass single-core and multicore), race (which includes the
## hot-reload-under-traffic test), fuzz smoke, the
## authorization-decision benchmark pair (which also asserts cached
## decisions stay cached), the control-plane fast-path rows (group
## commit, delta sync, warm promotion), and the allocs/op regression
## gates for the record layer and the observability plane.
ci: fmt-check vet build test test-multicore race fuzz-smoke bench-authz bench-ctrlplane gate-allocs

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## test-multicore: the GOMAXPROCS∈{1,4} matrix over the pipelined and
## striped data plane — scheduling-order bugs in the worker pipelines
## and stripe rendezvous hide at one setting or the other.
test-multicore:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Striped|Stripe|Pipeline|Bulk|ReadAll' . ./internal/record ./internal/gsitransport ./internal/gridftp
	GOMAXPROCS=4 $(GO) test -count=1 -run 'Striped|Stripe|Pipeline|Bulk|ReadAll' . ./internal/record ./internal/gsitransport ./internal/gridftp

## race: the concurrency gate — the session pool and transports must be
## clean under the race detector, and GRAM's concurrent cold starts
## (one GRIM exchange per invocation, one LMJFS per account) hold up
## over many schedules.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'Concurrent' ./internal/gram

## fuzz-smoke: a short fuzz pass over every parser target (go test runs
## one -fuzz target per invocation).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGT2DecodeRequest$$' -fuzztime=5s ./pkg/gsi
	$(GO) test -run '^$$' -fuzz '^FuzzGT2DecodeReply$$' -fuzztime=5s ./pkg/gsi
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime=5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDelegationRequest$$' -fuzztime=5s ./internal/proxy
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDelegationReply$$' -fuzztime=5s ./internal/proxy
	$(GO) test -run '^$$' -fuzz '^FuzzGridMapRoundTrip$$' -fuzztime=5s ./internal/authz
	$(GO) test -run '^$$' -fuzz '^FuzzRecordRoundTrip$$' -fuzztime=5s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzStreamReassembly$$' -fuzztime=5s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzStripeReassembly$$' -fuzztime=5s ./internal/record
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime=5s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyBundleDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaBundleDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime=5s ./internal/cas

## bench: regenerate the paper's measurements.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

## bench-pool: record the handshake-amortization pair into
## BENCH_pool.json (the perf trajectory's data points).
bench-pool:
	$(GO) test -run '^$$' -bench 'ExchangeColdHandshake|ExchangePooledResume' -benchmem . \
		| $(GO) run ./cmd/bench2json > BENCH_pool.json
	@cat BENCH_pool.json

## bench-credman: record the rotation-cost pair (pooled exchanges under
## a stable credential vs. across credential rotations) into
## BENCH_credman.json.
bench-credman:
	$(GO) test -run '^$$' -bench 'ExchangeSteadyState|ExchangeAcrossRotation' -benchmem . \
		| $(GO) run ./cmd/bench2json > BENCH_credman.json
	@cat BENCH_credman.json

## bench-authz: record the authorization-decision rows (full pipeline
## evaluation, decision-cache hit, and the cache hit over WAL-backed
## durable state) into BENCH_authz.json.
bench-authz:
	$(GO) test -run '^$$' -bench 'AuthorizeCold|AuthorizeCached' -benchmem . \
		| $(GO) run ./cmd/bench2json > BENCH_authz.json
	@cat BENCH_authz.json

## bench-scale: the PR 9 deployment-scale scenario — two resource-server
## OS processes, each with WAL-backed durable trust state and a CAS
## bundle replica, decide ~1M distinct subject DNs across 10k concurrent
## sessions while the parent kills the primary bundle publisher mid-run
## (the standby must deliver a membership update that landed after the
## primary died). The benchmark fails unless fail-open decisions are
## exactly zero; results land in BENCH_scale.json.
bench-scale:
	GSI_SCALE_FULL=1 $(GO) test -run '^$$' -bench '^BenchmarkScaleFederatedSessions$$' -benchtime 1x -timeout 900s . \
		| $(GO) run ./cmd/bench2json > BENCH_scale.json
	@cat BENCH_scale.json

## bench-ctrlplane: record the PR 10 control-plane fast-path rows into
## BENCH_ctrlplane.json — the WAL append matrix (SyncAlways vs
## SyncBatched at 1/8/64 writers: the widening gap is the group-commit
## claim; the 1-writer rows gate that batching adds no allocations over
## the SyncAlways frame build), the 100k-member VO sync pair (signed
## delta vs full bundle, with the bytes metrics for a 100-change
## catch-up), and the promotion pair (a standby's first decision cold
## vs pre-warmed from the publisher's hot-key export).
bench-ctrlplane:
	{ $(GO) test -run '^$$' -bench '^BenchmarkWALAppendSync(Always|Batched)(1|8|64)$$' -benchmem ./internal/wal ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCASDeltaSync100k$$|^BenchmarkCASFullSync100k$$' -benchmem -timeout 900s . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPromotion(Cold|Warm)FirstDecision$$' -benchmem . ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'WALAppendSyncAlways1=1,WALAppendSyncBatched1=1' > BENCH_ctrlplane.json
	@cat BENCH_ctrlplane.json

## bench-record: record the record-layer data points into
## BENCH_record.json — steady-state pooled exchange (allocs/op gate
## ≤ 2), the zero-alloc idle probe, and the 64 MiB streamed transfer
## against the reconstructed pre-refactor whole-message path. Each
## transfer benchmark runs in its own process so one benchmark's heap
## residue cannot skew the next one's GC pacing.
bench-record:
	{ $(GO) test -run '^$$' -bench '^BenchmarkExchangeSteadyState$$' -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPoolProbe$$' -benchmem ./pkg/gsi ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkWholeMessageTransfer64M$$' -benchtime=20s -timeout 900s -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkStreamTransfer64M$$' -benchtime=20s -timeout 900s -benchmem . ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'ExchangeSteadyState=2,PoolProbe=0' > BENCH_record.json
	@cat BENCH_record.json

## bench-stripe: regenerate BENCH_record.json with the multicore rows
## added — the 4-stripe parallel transfer alongside the single-stream
## and whole-message paths (same per-process isolation and allocs/op
## gates as bench-record). On a multicore host the striped row should
## approach 1/K of the single-stream wall clock; on a single-core host
## it is strictly coordination overhead (see DESIGN.md's caveat).
bench-stripe:
	{ $(GO) test -run '^$$' -bench '^BenchmarkExchangeSteadyState$$' -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPoolProbe$$' -benchmem ./pkg/gsi ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkWholeMessageTransfer64M$$' -benchtime=20s -timeout 900s -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkStreamTransfer64M$$' -benchtime=20s -timeout 900s -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkStripedTransfer64M$$' -benchtime=20s -timeout 900s -benchmem . ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'ExchangeSteadyState=2,PoolProbe=0' > BENCH_record.json
	@cat BENCH_record.json

## bench-telemetry: record the observability plane's data points into
## BENCH_telemetry.json — the instrumented pooled exchange (allocs/op
## gate ≤ 2, same as the uninstrumented baseline: metrics must be free
## on the hot path) and the registry's counter/histogram micro
## benchmarks (0 allocs/op each).
bench-telemetry:
	{ $(GO) test -run '^$$' -bench '^BenchmarkExchangeInstrumented$$' -benchmem ./pkg/gsi ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCounterInc$$|^BenchmarkHistogramObserve$$' -benchmem ./internal/telemetry ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'ExchangeInstrumented=2,CounterInc=0,HistogramObserve=0' > BENCH_telemetry.json
	@cat BENCH_telemetry.json

## bench-trace: record the tracing plane's data points into
## BENCH_trace.json — the pooled exchange with tracing compiled in but
## disabled (allocs/op gate ≤ 2: the nil-tracer checks must be free),
## the traced exchange (overhead stays visible, not gated), and the
## span start/end micro benchmark (0 allocs/op from the span pool).
bench-trace:
	{ $(GO) test -run '^$$' -bench '^BenchmarkExchangeTracingDisabled$$|^BenchmarkExchangeTraced$$' -benchmem ./pkg/gsi ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkSpanStartEnd$$' -benchmem ./internal/trace ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'ExchangeTracingDisabled=2,SpanStartEnd=0' > BENCH_trace.json
	@cat BENCH_trace.json

## gate-allocs: the fast CI regression gate — steady-state pooled
## Exchange must stay ≤ 2 allocs/op with metrics attached and with
## tracing compiled in but disabled, the idle probe at 0, the telemetry
## and span-lifecycle hot paths at 0, and a cached authorization
## decision over WAL-backed durable state at 0 (durability is paid at
## mutation time, never on the decision hot path), and a group-committed
## WAL append at 1 — the same single frame-buffer allocation as
## SyncAlways, so batching never buys throughput with garbage. A GRAM
## Submit routed to a running LMJFS over a 1,000-entry grid-mapfile stays
## at 217: one O(mapfile) step in the router or the LMJFS would be
## thousands over.
gate-allocs:
	{ $(GO) test -run '^$$' -bench '^BenchmarkExchangeSteadyState$$|^BenchmarkAuthorizeCachedDurable$$' -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPoolProbe$$|^BenchmarkExchangeInstrumented$$|^BenchmarkExchangeTracingDisabled$$' -benchmem ./pkg/gsi ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCounterInc$$|^BenchmarkHistogramObserve$$' -benchmem ./internal/telemetry ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkSpanStartEnd$$' -benchmem ./internal/trace ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkWALAppendSync(Always|Batched)1$$' -benchmem ./internal/wal ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkGRAMSubmitWarm1k$$' -benchmem ./internal/gram ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'ExchangeSteadyState=2,PoolProbe=0,ExchangeInstrumented=2,CounterInc=0,HistogramObserve=0,ExchangeTracingDisabled=2,SpanStartEnd=0,AuthorizeCachedDurable=0,WALAppendSyncAlways1=1,WALAppendSyncBatched1=1,GRAMSubmitWarm1k=217' > /dev/null

## fmt: rewrite files in place.
fmt:
	gofmt -w .
