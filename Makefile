# WSQ/DSQ reproduction — common targets.

GO ?= go

.PHONY: all build vet lint test test-race race-loop-reuse race-loop-pump synctest check fuzz fuzzqe-smoke bench bench-check table1 examples clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis (cmd/wsqlint), six rules over one
# shared call graph: context flow, seeded randomness, lock scope,
# goroutine ownership, lock-order cycles, Close error aggregation.
# Each is kept because a mutant of the real tree gets past every test
# (the table in DESIGN.md "Static invariants"). Exits non-zero on any
# diagnostic; there is no waiver comment.
lint:
	$(GO) run ./cmd/wsqlint ./...

# The non-race run is the one that holds the allocation budgets
# (internal/core TestAllocationBudget skips itself under -race, whose
# runtime allocates on its own account); `check` runs that one test
# without the detector for the same reason.
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
# share one tree, so a decorator left in it shows there too.
race-loop-reuse:
	$(GO) test -race -count=10 -run TestReuse ./internal/core

# The pump (about 15 s): handoff, settlement, coalescing, sibling-cancel,
# goroutine-lifetime, Quiesce and synchronous-call tests. Deadline and
# hedge timers and retry backoffs act under the pump's lock from their own
# goroutines, an execution goroutine parks and is handed its next call or
# retired by Close/Quiesce between two of its critical sections, a
# synchronous caller's wait ends by settlement or by its context, and a
# round's lock-free cache probe races the completions it may miss.
race-loop-pump:
	$(GO) test -race -count=10 -run 'TestHandoff|TestSettleHandshake|TestCoalesce|TestSiblingCancel|TestQuiesce|TestPumpReusesExecutionGoroutines|TestPumpGoroutineBound|TestSyncCall|TestEVScanCache|TestPeekRound' ./internal/async

# The simulated-time tests (about 5 s): Table 1 at the paper's latency,
# the ablations and the pump-limit sweep, each compared with its file under
# internal/harness/testdata/, and the pump's hedge-after-cancel slot check.
# They run inside testing/synctest bubbles, whose fake clock makes every
# time exact; the files build only with GOEXPERIMENT=synctest (Go 1.24).
synctest:
	GOEXPERIMENT=synctest $(GO) test ./internal/harness ./internal/async

# Full gate: gofmt-clean tree + vet + wsqlint + the whole suite under the
# race detector + both race loops + the simulated-time tests + the
# allocation budgets without the detector,
# traced warm query, the retry-policy round, the /query decoder and the
# cold buffer-pool scan included + a fuzz smoke + the nested benchmark
# module. The concurrency
# tests (shared-pump server, concurrent Exec) only bite with -race; wsqlint
# enforces the invariants the race detector can only sample; the fuzz
# targets guard the parser and evaluator crash-freedom contracts and hold
# the /query decoder to encoding/json (corpus seeds live in testdata/fuzz/).
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) test -race ./...
	$(MAKE) race-loop-reuse
	$(MAKE) race-loop-pump
	$(MAKE) synctest
	$(GO) test -run TestAllocationBudget ./internal/core
	$(GO) test -run 'TestPumpRoundTripAllocs|TestPumpPolicyRoundAllocs' ./internal/async
	$(GO) test -run TestDecodeQueryResponseAllocs ./internal/server
	$(GO) test -run TestColdScanReusesEvictedFrames ./internal/storage
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzEval -fuzztime 10s ./internal/expr
	$(GO) test -run '^$$' -fuzz FuzzDecodeQueryResponse -fuzztime 10s ./internal/server
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

# Longer fuzzing session for the three targets.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 2m ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzEval -fuzztime 2m ./internal/expr
	$(GO) test -run '^$$' -fuzz FuzzDecodeQueryResponse -fuzztime 2m ./internal/server

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

clean:
	$(GO) clean ./...
