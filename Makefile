GO ?= go

.PHONY: ci fmt-check vet build reachable options test examples cmds test-bench-module bench-traced test-multicore race fuzz-smoke bench gate-allocs fmt

## ci: the tier-1 gate — format check, vet, build, the reachability and
## option-surface checks, test (plus the example walkthroughs, every
## shipped command driven end to end, the benchmark module, which
## compiles against this one's API, one traced benchmark run, and the
## GOMAXPROCS matrix over the data plane — the seal pipeline and
## GridFTP's striped lanes: the same tests must pass single-core and
## multicore), race (which includes the
## hot-reload-under-traffic test), fuzz smoke, and the allocation
## ceilings on their own. It leaves the working tree as it found it.
ci: fmt-check vet build reachable options test examples cmds test-bench-module bench-traced test-multicore race fuzz-smoke gate-allocs

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
## benchmark or a test, and only the four handle constructors take
## ...Option — an option nobody sets, or a per-call option list, fails
## here instead of quietly coming back. The count is a ratchet: more
## exported With* than OPTIONS_CEILING fails, and DESIGN.md's option
## inventory ("All N, as ...") must state the ceiling. Deleting an
## option lowers both.
OPTIONS_CEILING := 27

options:
	@src=$$(ls pkg/gsi/*.go | grep -v '_test\.go$$'); \
	count=$$(grep -ho '^func With[A-Za-z0-9]*' $$src | sort -u | wc -l); \
	over=""; [ "$$count" -le $(OPTIONS_CEILING) ] || over=yes; \
	stale=""; grep -q '^All $(OPTIONS_CEILING), as ' DESIGN.md || stale=yes; \
	unset=$$(grep -ho '^func With[A-Za-z0-9]*' $$src | sed 's/^func //' | sort -u | while read -r o; do \
		grep -rqw --include='*.go' "$$o" cmd examples bench || \
		grep -rqw --include='*_test.go' "$$o" . || echo "$$o"; done); \
	percall=$$(grep -hE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9]*\(.*\.\.\.Option' $$src | \
		grep -vE '^func (\([^)]*\) )?(NewClient|NewServer|NewCredentialManager|NewAuthorizationPipeline)\('); \
	if [ -n "$$unset" ]; then echo "pkg/gsi options no cmd, example, benchmark or test sets:"; echo "$$unset"; fi; \
	if [ -n "$$percall" ]; then echo "pkg/gsi functions other than the handle constructors taking ...Option:"; echo "$$percall"; fi; \
	if [ -n "$$over" ]; then echo "pkg/gsi declares $$count With* options, over the ceiling of $(OPTIONS_CEILING)"; fi; \
	if [ -n "$$stale" ]; then echo "DESIGN.md's option inventory does not read 'All $(OPTIONS_CEILING), as ...'"; fi; \
	[ -z "$$unset$$percall$$over$$stale" ]

test:
	$(GO) test ./...

## examples: every walkthrough under examples/ runs to exit 0 (each is
## in-memory and finishes in about a second), so a facade change that
## compiles but breaks one fails here rather than in front of a reader.
## Each example exits non-zero on an outcome other than the one it prints —
## gramjob on the §5.2 least-privilege figures, quickstart on a revoked
## user served — so exit 0 means the walkthrough's claims held.
examples:
	@for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "$$e failed"; exit 1; }; \
	done

## cmds: every command under cmd/ driven end to end, its output
## checked; a cmd/ directory with no step of its own here fails the
## target, so no command ships unrun. gsictl, as an operator drives it,
## a few seconds end to end: `serve` stands a bundle up in a temp dir;
## `stats` as the bundled admin is served and as the bundled user is
## refused with "denied Stats"; the flight recorder's server.authz spans
## are the ops the clients sent and no others (no FindServiceData: an
## operator reading the trail must not find a denial for a call nobody
## made); and SIGINT drains the server, which removes its endpoint file.
cmds:
	@for d in cmd/*/; do c=$$(basename $$d); \
		awk '/^cmds:/ { f = 1; next } f && !/^\t/ { exit } f' $(firstword $(MAKEFILE_LIST)) | grep -qF "./cmd/$$c " || \
		{ echo "cmds: cmd/$$c has no step in this target"; exit 1; }; \
	done
	@tmp=$$(mktemp -d); pid=; trap '[ -z "$$pid" ] || kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/gsictl ./cmd/gsictl || exit 1; \
	$$tmp/gsictl serve -dir $$tmp/bundle -metrics "" > $$tmp/serve.log 2>&1 & pid=$$!; \
	for i in $$(seq 100); do [ -s $$tmp/bundle/endpoint ] && break; sleep 0.1; done; \
	[ -s $$tmp/bundle/endpoint ] || { echo "cmds: gsictl serve wrote no endpoint file"; cat $$tmp/serve.log; exit 1; }; \
	$$tmp/gsictl stats -dir $$tmp/bundle > /dev/null || { echo "cmds: gsictl stats as admin failed"; exit 1; }; \
	if $$tmp/gsictl stats -dir $$tmp/bundle -cred user > $$tmp/user.log 2>&1; then \
		echo "cmds: gsictl stats -cred user was served"; exit 1; fi; \
	grep -q 'denied Stats' $$tmp/user.log || { echo "cmds: gsictl stats -cred user failed without 'denied Stats':"; cat $$tmp/user.log; exit 1; }; \
	$$tmp/gsictl traces -dir $$tmp/bundle -op server.authz > $$tmp/traces.log || { echo "cmds: gsictl traces failed"; exit 1; }; \
	if grep -q FindServiceData $$tmp/traces.log; then \
		echo "cmds: server.authz spans for an op no one sent:"; cat $$tmp/traces.log; exit 1; fi; \
	kill -INT $$pid; wait $$pid; pid=; \
	[ ! -e $$tmp/bundle/endpoint ] || { echo "cmds: endpoint file left after SIGINT"; exit 1; }

## test-bench-module: bench/ is its own module, so `go test ./...` here
## never descends into it; an API it calls could break unnoticed.
test-bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## bench-traced: one traced benchmark run, which must finish correct
## with no failed op. Only a traced run executes the per-layer probes
## (bench/probes.go: CAS DecodeBundle + Apply, SignEnvelope and
## VerifyEnvelope, InvokeSigned, GRAM Submit and Run, each with its own
## success check), and test-bench-module runs the benchmark untraced, so
## a product change that breaks a probe would otherwise first fail in a
## benchmark run. About a minute, the build included. Until the
## cold-decision probe stops wrapping onto cached keys (ROADMAP item 4),
## some runs fail there at random.
bench-traced:
	@out=$$(bash bench/run.sh --workload pooled_rpc --seed 1 --seconds 15 --trace 1) || \
		{ echo "$$out" | tail -20; echo "bench-traced: bench/run.sh failed"; exit 1; }; \
	last=$$(echo "$$out" | tail -1); \
	echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -qE '"failed":0[,}]' || \
		{ echo "$$out" | tail -20; echo "bench-traced: last line is not correct with failed 0"; exit 1; }

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
## (verifiers in flight while a root reload and a CRL land), a
## connection's read-ahead (records and handshakes read in every split)
## and the decision oracle (the pipeline against its reference evaluator
## while member deltas land on the replica).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'Concurrent' ./internal/gram
	$(GO) test -race -count=50 -run 'Rendezvous' ./internal/gsitransport
	$(GO) test -race -count=20 -run 'ReadAhead|OneRead' ./internal/gsitransport
	$(GO) test -race -count=50 -run 'StripedLane' ./internal/gridftp
	$(GO) test -race -count=20 -run 'TestVerifyMemoConcurrentRevocation' ./internal/gridcert
	$(GO) test -race -count=20 -run 'TestDecisionOracle' ./pkg/gsi

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
	$(GO) test -run '^$$' -fuzz '^FuzzChunkTokenOpen$$' -fuzztime=5s ./internal/gss
	$(GO) test -run '^$$' -fuzz '^FuzzReadAheadSplits$$' -fuzztime=5s ./internal/gsitransport
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime=5s ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzPolicyBundleDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaBundleDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzSyncReplyDecode$$' -fuzztime=5s ./internal/cas
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelopeDecode$$' -fuzztime=5s ./internal/soap
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeChain$$' -fuzztime=5s ./internal/gridcert

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
## a 1,000-entry grid-mapfile at 120: one O(mapfile) step in the router
## or the LMJFS would be thousands over; a three-certificate proxy chain,
## impersonation or restricted, decodes in <= 30 — one copy of each
## certificate's bytes, every field a view of it or a substring of one
## string per name (copying each field took 100); a chain whose links the
## trust store has in its memo verifies in <= 2 (its ChainInfo, and the
## Restricted list when a proxy carries a policy) — that, not a cache of
## verdicts in front of Verify, is what makes a repeated peer cheap; a
## cold authorization decision (65 local rules, the VO's half from the
## bundle replica) <= 5 — the identity rendered once, each rule matched
## in place, the replica read once — and the 65-rule local scan itself
## at 0, subject-listing rules included; a
## replica's first full sync of a 10,000-member bundle <= 1,000 on each
## side — DecodeBundle + Apply, and the publisher's version-0 Pull —
## where anything done per member would be tens of thousands, and the
## syncer's apply of that bundle (DecodeSyncReply + ApplyEncoded) in
## <= 3x its signed bytes: one string copy and one table build, where
## building the tables twice took 4.8x; a SOAP
## envelope's Marshal + Unmarshal <= 12 whether its body is 1 KiB or
## 4 MiB, the latter in <= 3x the body's size (encoding/xml took 128 for
## the small one and 12x for the large); HMAC-SHA256 and HKDF extract at
## 0 and a key schedule at 1, its keys; a full GSS handshake over a
## warm trust store <= 87, its key schedule, transcript and finished
## MACs off the heap (156 when each built a crypto/hmac or a digest); and
## a pipelined 4 MiB Stream.Write <= 3 a chunk (2.75 measured: the seal
## task and its channel; each seal's nonce escaping made it 3.75).
gate-allocs:
	$(GO) test -count=1 -run 'Alloc' ./pkg/gsi ./internal/telemetry ./internal/trace ./internal/wal ./internal/gram ./internal/cas ./internal/gridcert ./internal/soap ./internal/authz ./internal/gridcrypto ./internal/gss ./internal/gsitransport

## fmt: rewrite files in place.
fmt:
	gofmt -w .
