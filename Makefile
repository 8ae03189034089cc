GO ?= go

.PHONY: ci fmt-check vet build test test-bench-module test-multicore race fuzz-smoke bench bench-authz bench-ctrlplane gate-allocs fmt

## ci: the tier-1 gate — format check, vet, build, test (plus the
## benchmark module, which compiles against this one's API, and the
## GOMAXPROCS matrix over the striped data plane: the same tests must
## pass single-core and multicore), race (which includes the
## hot-reload-under-traffic test), fuzz smoke, the
## authorization-decision benchmark pair (which also asserts cached
## decisions stay cached), the control-plane fast-path rows (group
## commit, delta sync, warm promotion), and the allocs/op regression
## gates for the record layer and the observability plane.
ci: fmt-check vet build test test-bench-module test-multicore race fuzz-smoke bench-authz bench-ctrlplane gate-allocs

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

## test-bench-module: bench/ is its own module, so `go test ./...` here
## never descends into it; an API it calls could break unnoticed.
test-bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## test-multicore: the GOMAXPROCS∈{1,4} matrix over the pipelined and
## striped data plane — scheduling-order bugs in the worker pipelines,
## the stripe rendezvous and the end-of-transfer sequence hide at one
## setting or the other.
MULTICORE_TESTS = Striped|Stripe|Pipeline|Bulk|ReadAll|Rendezvous|Finish
test-multicore:
	GOMAXPROCS=1 $(GO) test -count=1 -run '$(MULTICORE_TESTS)' . ./internal/record ./internal/gsitransport ./internal/gridftp
	GOMAXPROCS=4 $(GO) test -count=1 -run '$(MULTICORE_TESTS)' . ./internal/record ./internal/gsitransport ./internal/gridftp

## race: the concurrency gate — the session pool and transports must be
## clean under the race detector, and GRAM's concurrent cold starts
## (one GRIM exchange per invocation, one LMJFS per account) hold up
## over many schedules, as does the stripe rendezvous (the final join
## racing the join timeout).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'Concurrent' ./internal/gram
	$(GO) test -race -count=50 -run 'Rendezvous' ./internal/gsitransport

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

## bench: the repo's one benchmark (BENCHMARK.json): four grid
## workloads, end-to-end metrics and per-layer probes.
bench:
	bash bench/run.sh

## bench-authz: record the authorization-decision rows (full pipeline
## evaluation, decision-cache hit, and the cache hit over WAL-backed
## durable state) into BENCH_authz.json.
bench-authz:
	$(GO) test -run '^$$' -bench 'AuthorizeCold|AuthorizeCached' -benchmem . \
		| $(GO) run ./cmd/bench2json > BENCH_authz.json
	@cat BENCH_authz.json

## bench-ctrlplane: record the PR 10 control-plane fast-path rows into
## BENCH_ctrlplane.json — the WAL append rows (1/8/64 writers: the
## falling cost per durable append is the group-commit claim; the
## 1-writer row gates that an append allocates its frame buffer and
## nothing else), the 100k-member VO sync pair (signed
## delta vs full bundle, with the bytes metrics for a 100-change
## catch-up), and the promotion pair (a standby's first decision cold
## vs pre-warmed from the publisher's hot-key export).
bench-ctrlplane:
	{ $(GO) test -run '^$$' -bench '^BenchmarkWALAppend(1|8|64)$$' -benchmem ./internal/wal ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCASDeltaSync100k$$|^BenchmarkCASFullSync100k$$' -benchmem -timeout 900s . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPromotion(Cold|Warm)FirstDecision$$' -benchmem . ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'WALAppend1=1' > BENCH_ctrlplane.json
	@cat BENCH_ctrlplane.json

## gate-allocs: the fast CI regression gate — steady-state pooled
## Exchange must stay ≤ 2 allocs/op with metrics attached and with
## tracing compiled in but disabled, the idle probe at 0, the telemetry
## and span-lifecycle hot paths at 0, and a cached authorization
## decision over WAL-backed durable state at 0 (durability is paid at
## mutation time, never on the decision hot path), and a durable WAL
## append at 1 — the single frame-buffer allocation, so group commit
## never buys throughput with garbage. A GRAM
## Submit routed to a running LMJFS over a 1,000-entry grid-mapfile stays
## at 217: one O(mapfile) step in the router or the LMJFS would be
## thousands over.
gate-allocs:
	{ $(GO) test -run '^$$' -bench '^BenchmarkExchangeSteadyState$$|^BenchmarkAuthorizeCachedDurable$$' -benchmem . ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkPoolProbe$$|^BenchmarkExchangeInstrumented$$|^BenchmarkExchangeTracingDisabled$$' -benchmem ./pkg/gsi ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkCounterInc$$|^BenchmarkHistogramObserve$$' -benchmem ./internal/telemetry ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkSpanStartEnd$$' -benchmem ./internal/trace ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkWALAppend1$$' -benchmem ./internal/wal ; \
	  $(GO) test -run '^$$' -bench '^BenchmarkGRAMSubmitWarm1k$$' -benchmem ./internal/gram ; } \
	| $(GO) run ./cmd/bench2json -gate-allocs 'ExchangeSteadyState=2,PoolProbe=0,ExchangeInstrumented=2,CounterInc=0,HistogramObserve=0,ExchangeTracingDisabled=2,SpanStartEnd=0,AuthorizeCachedDurable=0,WALAppend1=1,GRAMSubmitWarm1k=217' > /dev/null

## fmt: rewrite files in place.
fmt:
	gofmt -w .
