GO ?= go

.PHONY: build test check lint require-go fuzz-smoke bench-smoke bench-compare resilience-smoke serve-smoke faultfs-smoke bench bench-all

# require-go fails fast with a clear message when the Go toolchain is
# missing or $(GO) points at a nonexistent binary, instead of letting
# each target die with its own cryptic "command not found".
require-go:
	@command -v $(GO) >/dev/null 2>&1 || { \
		echo "error: Go toolchain '$(GO)' not found in PATH; install Go or set GO=/path/to/go" >&2; \
		exit 1; \
	}

build: require-go
	$(GO) build ./...

test: require-go
	$(GO) test ./...

# lint fails on any file gofmt would change (the nested perfbench
# module included), then runs the repository's own analyzer suite (see
# docs/simlint.md). Always ./... — hotpath facts are collected
# module-wide and deadcode needs every command as a root, so subset
# runs report false positives.
lint: require-go
	@unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l .) || exit 1; \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would reformat these files (run gofmt -w):" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/simlint ./...

# check is the pre-merge gate: simlint, go vet, the full suite under
# the race detector (including the multi-core coherence tests in
# internal/coherence), a short fuzz smoke over the trace decoders and
# the coherence snoop filter, a single-iteration smoke of the
# sweep-engine benchmarks, the
# performance regression gate against the committed BENCH_sweep.json
# scaling matrix, the SIGKILL/resume crash-safety smoke, and the
# simserved chaos smoke (64 racing clients, 3 server SIGKILLs,
# graceful drain), and the storage-fault chaos smoke (the same plan
# with torn writes/ENOSPC/failed renames injected under the state
# dir), and the benchmark module's own tests (perfbench is a nested
# module that the root ./... skips, so a change to an API it calls
# would otherwise break the benchmark build unnoticed). Lint runs
# before the race suite so invariant violations fail in seconds, not
# minutes.
check: build
	$(MAKE) lint
	$(GO) vet ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-compare
	$(MAKE) resilience-smoke
	$(MAKE) serve-smoke
	$(MAKE) faultfs-smoke
	@echo "check: gates passed: build lint vet race perfbench fuzz-smoke bench-smoke bench-compare resilience-smoke serve-smoke faultfs-smoke"

fuzz-smoke: require-go
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadBinaryLenient$$' -fuzztime 5s
	$(GO) test ./internal/resilience -run '^$$' -fuzz '^FuzzJournalRecover$$' -fuzztime 5s
	$(GO) test ./internal/reuse -run '^$$' -fuzz '^FuzzWriteCacheCurve$$' -fuzztime 5s
	$(GO) test ./internal/coherence -run '^$$' -fuzz '^FuzzSnoopFilter$$' -fuzztime 5s

# bench-smoke compiles and runs every sweep benchmark, the multi-core
# extension benchmarks, the figures that fan their runs out over cores,
# the ids the timing cycle model serves (ext-cpi, ext-perf, ext-burst)
# and simserved's admission commit (at 0 and 1000 jobs of history) for
# one iteration — fast enough for the gate, enough to catch bit-rot.
bench-smoke: require-go
	$(GO) test ./internal/sweep -run '^$$' -bench 'BenchmarkSweep|BenchmarkGang' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkExtCoh' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench '^Benchmark(Fig5|Fig7|Fig8|Fig9|ExtCPI|ExtPerf|ExtBurst|ExtSwitch|ExtL2Policy)$$' -benchtime 1x -benchmem
	$(GO) test ./internal/serve -run '^$$' -bench '^BenchmarkSubmit$$' -benchtime 1x -benchmem

# bench-compare is the performance regression gate: a fresh reduced
# sweep measured at the full worker matrix, compared against the
# committed BENCH_sweep.json (ns/event within 10% on identical
# silicon, zero-alloc hot loops, scaling matrix invariants). See
# scripts/bench_compare.sh and EXPERIMENTS.md.
bench-compare: require-go
	GO="$(GO)" sh scripts/bench_compare.sh

# resilience-smoke SIGKILLs a checkpointed sweep mid-flight three
# times, resumes it, and requires the final CSV to be byte-identical
# to an uninterrupted run.
resilience-smoke: require-go
	GO="$(GO)" sh scripts/resilience_smoke.sh

# serve-smoke builds simserved and the simload chaos harness with the
# race detector, spawns the server with a small admission queue,
# drives 64 concurrent tenant sessions, SIGKILLs the server three
# times mid-run, and requires zero lost or double-reported units,
# bounded 503 shedding, and a clean SIGTERM drain.
serve-smoke: require-go
	GO="$(GO)" sh scripts/serve_smoke.sh

# faultfs-smoke reruns the simserved chaos plan with a fault-injecting
# filesystem under the state dir (torn writes, ENOSPC, failed renames)
# plus two SIGKILLs, and still requires golden results and zero lost
# jobs. See scripts/faultfs_smoke.sh and docs/faults.md.
faultfs-smoke: require-go
	GO="$(GO)" sh scripts/faultfs_smoke.sh

# bench measures the gang sweep engine against the sequential baseline
# on the full figure sweep at every worker-pool size up to the full
# core count and writes BENCH_sweep.json (wall clocks, speedup,
# ns/event, allocs/event, scaling[] matrix, host metadata). See
# EXPERIMENTS.md for how to read it.
bench: require-go
	$(GO) run ./cmd/sweepbench -workers auto -out BENCH_sweep.json

# bench-all runs the complete per-figure/ablation benchmark suite.
bench-all: require-go
	$(GO) test -bench=. -benchmem ./...
