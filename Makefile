GO ?= go

.PHONY: ci fmt-check vet build reachable options test examples test-bench-module test-multicore race fuzz-smoke bench gate-allocs fmt

## ci: the tier-1 gate — format check, vet, build, the reachability and
## option-surface checks, test (plus the example walkthroughs, the
## benchmark module, which compiles against this one's API, and the
## GOMAXPROCS matrix over the data plane — the seal pipeline and
## GridFTP's striped lanes: the same tests must pass single-core and
## multicore), race (which includes the
## hot-reload-under-traffic test), fuzz smoke, and the allocation
## ceilings on their own. It leaves the working tree as it found it.
ci: fmt-check vet build reachable options test examples test-bench-module test-multicore race fuzz-smoke gate-allocs

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## reachable: nothing exists for tests alone. Per package: every
## internal package is a dependency of some cmd, pkg or example; one that
## only its own tests (or nothing) import fails here, so a paper-era
## island cannot quietly come back (internal/israce is test-only by
## design). Per declaration (TestReachable, type-checked from source with
## go/types): every function and method, and every exported type,
## constant and variable, that a non-test file declares is reached from a
## root — main, init, a package-level variable's initialiser, or a name
## spelled under bench/ in a package bench imports. A method is reached
## with its receiver type once a reached body calls it or it satisfies an
## interface (Unwrap, Is and As count). The keep-list holds gsi.WithClock
## alone. Each finding prints file:line package.Name: delete it, or use it
## from an example.
reachable:
	@deps=$$($(GO) list -deps ./cmd/... ./pkg/... ./examples/...); \
	islands=$$($(GO) list ./internal/... | grep -v '/internal/israce$$' | while read -r p; do \
		echo "$$deps" | grep -qx "$$p" || echo "$$p"; done); \
	if [ -n "$$islands" ]; then \
		echo "internal packages no cmd, pkg or example reaches:"; echo "$$islands"; exit 1; \
	fi
	$(GO) test -count=1 -run '^TestReachable$$' .

## options: pkg/gsi's option surface stays what something uses. Every
## exported With* it declares is named by a cmd, an example, the
## benchmark or a test, and only the five handle constructors take
## ...Option — an option nobody sets, or a per-call option list, fails
## here instead of quietly coming back.
options:
	@src=$$(ls pkg/gsi/*.go | grep -v '_test\.go$$'); \
	unset=$$(grep -ho '^func With[A-Za-z0-9]*' $$src | sed 's/^func //' | sort -u | while read -r o; do \
		grep -rqw --include='*.go' "$$o" cmd examples bench || \
		grep -rqw --include='*_test.go' "$$o" . || echo "$$o"; done); \
	percall=$$(grep -hE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9]*\(.*\.\.\.Option' $$src | \
		grep -vE '^func (\([^)]*\) )?(NewClient|NewServer|NewSessionPool|NewCredentialManager|NewAuthorizationPipeline)\('); \
	if [ -n "$$unset" ]; then echo "pkg/gsi options no cmd, example, benchmark or test sets:"; echo "$$unset"; fi; \
	if [ -n "$$percall" ]; then echo "pkg/gsi functions other than the handle constructors taking ...Option:"; echo "$$percall"; fi; \
	[ -z "$$unset$$percall" ]

test:
	$(GO) test ./...

## examples: every walkthrough under examples/ runs to exit 0 (each is
## in-memory and finishes in under a second), so a facade change that
## compiles but breaks one fails here rather than in front of a reader.
examples:
	@for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "$$e failed"; exit 1; }; \
	done

## test-bench-module: bench/ is its own module, so `go test ./...` here
## never descends into it; an API it calls could break unnoticed.
test-bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## test-multicore: the GOMAXPROCS∈{1,4} matrix over the data plane —
## scheduling-order bugs in the seal pipeline's workers, GridFTP's
## striped lanes and their rendezvous, and the end-of-transfer sequence
## hide at one setting or the other. Receiving is serial everywhere.
MULTICORE_TESTS = Striped|Stripe|Pipeline|Bulk|ReadAll|Rendezvous|Finish
test-multicore:
	GOMAXPROCS=1 $(GO) test -count=1 -run '$(MULTICORE_TESTS)' ./internal/record ./internal/gsitransport ./internal/gridftp
	GOMAXPROCS=4 $(GO) test -count=1 -run '$(MULTICORE_TESTS)' ./internal/record ./internal/gsitransport ./internal/gridftp

## race: the concurrency gate — the session pool and transports must be
## clean under the race detector, and GRAM's concurrent cold starts
## (one GRIM exchange per invocation, one LMJFS per account) hold up
## over many schedules, as do GridFTP's stripe rendezvous (the final
## join racing the join timeout), its parked data lanes (a session's
## next JOIN reaching a lane whose server goroutine is still leaving the
## last transfer's rendezvous), the trust store's signature memo
## (verifiers in flight while a root reload and a CRL land) and a
## connection's read-ahead (records and handshakes read in every split).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'Concurrent' ./internal/gram
	$(GO) test -race -count=50 -run 'Rendezvous' ./internal/gsitransport
	$(GO) test -race -count=20 -run 'ReadAhead|OneRead' ./internal/gsitransport
	$(GO) test -race -count=50 -run 'StripedLane' ./internal/gridftp
	$(GO) test -race -count=20 -run 'TestVerifyMemoConcurrentRevocation' ./internal/gridcert

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
	$(GO) test -run '^$$' -fuzz '^FuzzReadAheadSplits$$' -fuzztime=5s ./internal/gsitransport
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime=5s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyBundleDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaBundleDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzSyncReplyDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelopeDecode$$' -fuzztime=5s ./internal/soap

## bench: the repo's one benchmark (BENCHMARK.json): four grid
## workloads, end-to-end metrics and per-layer probes.
bench:
	bash bench/run.sh

## gate-allocs: the allocation ceilings, alone and uncached — the same
## tests `go test ./...` runs, each in the package that owns its path
## (each skips itself under -race). Steady-state pooled Exchange stays
## <= 2 allocs/op plain, with metrics attached, and with tracing
## compiled in but disabled; the idle probe, the telemetry and
## span-lifecycle hot paths and a cached authorization decision over
## WAL-backed durable state stay at 0 (durability is paid at mutation
## time, never on the decision hot path); a durable WAL append at 1 —
## the single frame-buffer allocation, so group commit never buys
## throughput with garbage; a GRAM Submit routed to a running LMJFS over
## a 1,000-entry grid-mapfile at 217: one O(mapfile) step in the router
## or the LMJFS would be thousands over; a chain whose links the trust
## store has in its memo verifies in <= 2 (its ChainInfo, and the
## Restricted list when a proxy carries a policy) — that, not a cache of
## verdicts in front of Verify, is what makes a repeated peer cheap; a
## cold authorization decision (65 local rules, the VO's half from the
## bundle replica) <= 100; a
## replica's first full sync of a 10,000-member bundle <= 1,000 on each
## side — DecodeBundle + Apply, and the publisher's version-0 Pull —
## where anything done per member would be tens of thousands; and a SOAP
## envelope's Marshal + Unmarshal <= 12 whether its body is 1 KiB or
## 4 MiB, the latter in <= 3x the body's size (encoding/xml took 128 for
## the small one and 12x for the large).
gate-allocs:
	$(GO) test -count=1 -run 'Alloc' ./pkg/gsi ./internal/telemetry ./internal/trace ./internal/wal ./internal/gram ./internal/cas ./internal/gridcert ./internal/soap

## fmt: rewrite files in place.
fmt:
	gofmt -w .
