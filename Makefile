# WSQ/DSQ reproduction — common targets.

GO ?= go

.PHONY: all build vet lint lockrank test test-race race-loop-reuse race-loop-pump synctest check fuzz fuzzqe-smoke bench bench-once bench-check table1 examples loc clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis (cmd/wsqlint), three rules over one
# shared call graph: context flow, seeded randomness, lock scope. Each is
# kept because a mutant of the real tree gets past every test (the table
# in DESIGN.md "Static invariants"). Exits
# non-zero on any diagnostic; there is no waiver comment. Goroutine leaks
# are a test's business: internal/{async,core,server,shard,harness,fuzzqe}
# have a leakcheck.Main TestMain, so each `go test` below runs that gate.
lint:
	$(GO) run ./cmd/wsqlint ./...

# Lock order (about 17 s; the same tests take 7 s untagged): the tests of
# the packages whose mutexes are ranked, built with internal/lockrank's
# checked mutexes. A goroutine that takes a lock whose rank is not above
# every lock it holds ends the test binary with the rank pair and both
# acquisition stacks, the first time a test runs that path: a latent
# deadlock fails even when the opposite order, its other half, never
# runs.
lockrank:
	$(GO) test -tags lockrank ./internal/lockrank ./internal/core ./internal/async ./internal/cache ./internal/shard ./internal/server

# The non-race run is the one that holds the allocation figures (the
# ledger's objects and bytes columns, internal/harness TestLedger, and
# internal/exec TestOperatorContractReexecutionAllocs and
# TestKeptOperatorAllocs are not checked under -race, whose runtime
# allocates on its own account); `check` runs those tests without the
# detector for the same reason.
test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The race loops: tests whose interleavings one pass under the race
# detector does not always reach, run ten times over under it. `check`
# runs both, and CI's race job runs each in the group that owns its
# package.
#
# Plan reuse (about 12 s): a tree two queries run at once shows as a race
# or a wrong answer in TestReuse..., by name; traced and untraced runs
# share one tree, so a decorator left in it shows there too. A producer
# whose consumer keeps none of its tuples keeps the slab it refills for
# its tree's next execution, which is safe only while a tree runs one
# execution at a time: two sharing one show as wrong rows in
# TestReuseRecycledSlabsMatchTheData.
race-loop-reuse:
	$(GO) test -race -count=10 -run TestReuse ./internal/core

# The pump (about 15 s): handoff, settlement, coalescing, sibling-cancel,
# goroutine-lifetime, Quiesce, synchronous-call and mailbox tests. Deadline
# and hedge timers and retry backoffs act under the pump's lock from their
# own goroutines, an execution goroutine parks and is handed its next call
# or retired by Close/Quiesce between two of its critical sections, a
# synchronous caller's wait ends by settlement or by its context, a
# round's lock-free cache probe races the completions it may miss, a
# binding round's reused scratch must never reach a tuple already handed
# out, and a settled call is handed from the pump's table to its owner's
# mailbox (under p.mu, then the mailbox's lock) while the owner takes from
# that mailbox under its lock alone, claims its next batch, or closes and
# empties it for a re-open.
#
# The tier's two ask tests (about 20 s, five passes): an ask of a key's
# home completes on its own goroutine, racing the asker's own
# registrations of the key, which coalesce onto the asked call, and the
# home's settlement of the call it ran for every worker's askers.
race-loop-pump:
	$(GO) test -race -count=10 -run 'TestHandoff|TestSettleHandshake|TestCoalesce|TestSiblingCancel|TestQuiesce|TestPumpReusesExecutionGoroutines|TestPumpGoroutineBound|TestSyncCall|TestEVScanCache|TestPeekRound|TestBindRoundScratch|TestOpenTuplesSurviveAReopen|TestMailbox' ./internal/async
	$(GO) test -race -count=5 -run 'TestTierOneEngineCallPerKey|TestTierAskTakesNoSlot' ./internal/shard

# The simulated-time tests (about 8 s): Table 1 at the paper's latency,
# the ablations, the pump-limit sweep and the ledger's waves and latency
# columns, each compared with its file under internal/harness/testdata/,
# and the pump's hedge-after-cancel slot check.
# They run inside testing/synctest bubbles, whose fake clock makes every
# time exact; the files build only with GOEXPERIMENT=synctest (Go 1.24).
synctest:
	GOEXPERIMENT=synctest $(GO) test ./internal/harness ./internal/async

# Full gate: gofmt-clean tree + vet + wsqlint + the lock-order check + the
# whole suite under the race detector + both race loops + the simulated-time tests + the
# ledger's calls and allocation columns and the allocation budgets
# without the detector, the retry-policy round, the /query decoder and the
# cold buffer-pool scan included + every package benchmark run once + a
# fuzz smoke + the nested benchmark module. The concurrency
# tests (shared-pump server, concurrent Exec) only bite with -race; wsqlint
# enforces the invariants the race detector can only sample; the fuzz
# targets guard the parser and evaluator crash-freedom contracts, hold
# the /query decoder to encoding/json and the scan's two-half record
# decoder to a plain full decode (corpus seeds live in testdata/fuzz/).
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(MAKE) lint
	$(MAKE) lockrank
	$(GO) test -race ./...
	$(MAKE) race-loop-reuse
	$(MAKE) race-loop-pump
	$(MAKE) synctest
	$(GO) test -run TestLedger ./internal/harness
	$(GO) test -run 'TestOperatorContractReexecutionAllocs|TestKeptOperatorAllocs' ./internal/exec
	$(GO) test -run 'TestPumpRoundTripAllocs|TestPumpPolicyRoundAllocs' ./internal/async
	$(GO) test -run TestDecodeQueryResponseAllocs ./internal/server
	$(GO) test -run TestColdScanReusesEvictedFrames ./internal/storage
	$(MAKE) bench-once
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzEval -fuzztime 10s ./internal/expr
	$(GO) test -run '^$$' -fuzz FuzzDecodeQueryResponse -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzDecodeTuple -fuzztime 10s ./internal/types
	$(MAKE) fuzzqe-smoke
	$(MAKE) bench-check

# The repo's one benchmark (BENCHMARK.json, bench/README.md) is its own Go
# module, so `go build/vet/test ./...` at the root never compile it, and it
# calls straight into exec, async, core and plan: an executor refactor can
# break the ledger unnoticed. Vet and test it from inside, then run every
# workload for 2 s — exit code only; the program exits non-zero when a
# timed answer misses its sync BatchSize-1 reference digest. The numbers a
# 2 s run prints are not measurements (the ledger's run length is 10 s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --workload all --seconds 2

# Every package benchmark's body once (about 11 s). `go test` alone never
# runs a benchmark, so one that checks its own answer, as
# BenchmarkLocalJoin checks its 8 rows, could break unnoticed.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# Longer fuzzing session for the four targets.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 2m ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzEval -fuzztime 2m ./internal/expr
	$(GO) test -run '^$$' -fuzz FuzzDecodeQueryResponse -fuzztime 2m ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzDecodeTuple -fuzztime 2m ./internal/types

# Plan-equivalence fuzz smoke (~30s): a seeded, coverage-steered run of
# the differential harness — five plan regimes per query checked against
# the offline ground truth, including exact call and settlement counts
# (DESIGN.md §11). A divergence exits non-zero and leaves a minimized
# JSON repro in wsqfuzz-repro/ (uploaded as a CI artifact).
fuzzqe-smoke:
	$(GO) run ./cmd/wsqfuzz -seed 1 -duration 30s -n 0 -repro-dir wsqfuzz-repro

# The packages' micro-benchmarks (testing.B). The paper's Table 1 and the
# ablations are simulated-time tests (make table1, make synctest); the
# repo's one benchmark is bench/ (bench-check below, BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem ./...

# The paper's Table 1 at its own latency (~0.75 s a call) in simulated time:
# about a second of real time, compared with
# internal/harness/testdata/table1_paper.txt.
table1:
	GOEXPERIMENT=synctest $(GO) test -count=1 -run TestTable1PaperMode -v ./internal/harness

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/states
	$(GO) run ./examples/sigs
	$(GO) run ./examples/crawler
	$(GO) run ./examples/dsq

# Go lines per package, non-test and test, and their totals, outside
# bench/ (its own module) and testdata/: the count a change that removes
# code is measured by.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' | sed 's|^\./||' | xargs awk ' \
		{ d = FILENAME; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; k = FILENAME ~ /_test\.go$$/; n[d, k]++; all[k]++; dirs[d] } \
		END { printf "%-24s %9s %9s\n", "package", "non-test", "test"; \
			for (d in dirs) printf "%-24s %9d %9d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
			printf "%-24s %9d %9d\n", "total", all[0], all[1] }'

clean:
	$(GO) clean ./...
