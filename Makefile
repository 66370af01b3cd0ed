GO ?= go

.PHONY: build test check lint require-go fuzz-smoke bench-smoke examples-smoke resilience-smoke serve-smoke faultfs-smoke bench-all

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
# internal/coherence and the parallel trace loader in
# internal/workload), a short fuzz smoke over the trace decoders (each
# alone, and the windowed decoder against its byte-at-a-time
# reference), the coherence snoop filter, the write-buffer queue
# (against the drain queue and the sliding-slice buffer it replaced),
# the write cache curve's top-of-stack array against the write cache,
# the reuse profile's stack against a naive LRU list, and the recorded
# L1 pass (replayed into timing, burst and hierarchy against a live
# L1), a single-iteration smoke of the sweep-engine benchmarks, the
# gang engine's speedup floor (TestGangSpeedupFloor: at least 1.2x over
# one cache pass per config, at one worker and at GOMAXPROCS), the
# byte-identity of `paperfigs -all` against perfbench/goldens.json
# (TestAllMatchesGoldens; the race suite skips both), a run of
# every example program, the SIGKILL/resume crash-safety smoke, and the
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
	$(GO) test ./internal/sweep -run '^TestGangSpeedupFloor$$' -count 1
	$(GO) test ./cmd/paperfigs -run '^TestAllMatchesGoldens$$' -count 1
	$(MAKE) examples-smoke
	$(MAKE) resilience-smoke
	$(MAKE) serve-smoke
	$(MAKE) faultfs-smoke
	@echo "check: gates passed: build lint vet race perfbench fuzz-smoke bench-smoke TestGangSpeedupFloor TestAllMatchesGoldens examples-smoke resilience-smoke serve-smoke faultfs-smoke"

# FuzzDecodeMatchesReference seeds streams longer than one 64 KiB
# decode window; minimizing a new input grown from one would spend the
# whole 5 s, so its new inputs are kept as found. FuzzReadBinaryLenient,
# FuzzJournalRecover, FuzzWriteCacheCurve, FuzzAnalyzeMatchesNaive and
# FuzzQueueMatchesReferences keep theirs as found too: minimizing one
# froze each at 0 execs/s from about 3 s to the end of the run. So does FuzzReplayMatchesLive, each
# of whose inputs runs some sixty model replays beside their live twins.
fuzz-smoke: require-go
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadBinaryLenient$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecodeMatchesReference$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/resilience -run '^$$' -fuzz '^FuzzJournalRecover$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/reuse -run '^$$' -fuzz '^FuzzWriteCacheCurve$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/reuse -run '^$$' -fuzz '^FuzzAnalyzeMatchesNaive$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/coherence -run '^$$' -fuzz '^FuzzSnoopFilter$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/writebuffer -run '^$$' -fuzz '^FuzzQueueMatchesReferences$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzReplayMatchesLive$$' -fuzztime 5s -fuzzminimizetime 1x

# bench-smoke compiles and runs every sweep benchmark, the trace
# decoder benchmark, the multi-core extension benchmarks, the figures
# that fan their runs out over cores, the ids that replay recorded L1
# passes (ext-cpi, ext-perf, ext-burst, ext-victim, ext-l2policy), the
# reuse-stack id (ext-reuse) and simserved's admission commit (at 0
# and 1000 jobs of history) for one iteration — fast enough for the gate, enough to catch bit-rot.
bench-smoke: require-go
	$(GO) test ./internal/sweep -run '^$$' -bench 'BenchmarkSweep|BenchmarkGang' -benchtime 1x -benchmem
	$(GO) test ./internal/trace -run '^$$' -bench '^BenchmarkReadBinary$$' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench 'BenchmarkExtCoh' -benchtime 1x -benchmem
	$(GO) test . -run '^$$' -bench '^Benchmark(Fig5|Fig7|Fig8|Fig9|ExtCPI|ExtPerf|ExtBurst|ExtVictim|ExtReuse|ExtSwitch|ExtL2Policy)$$' -benchtime 1x -benchmem
	$(GO) test ./internal/serve -run '^$$' -bench '^BenchmarkSubmit$$' -benchtime 1x -benchmem

# examples-smoke builds and runs every program under examples/ and
# fails on the first that exits non-zero; the build and vet only
# compile them. All seven take a few seconds.
examples-smoke: require-go
	@for d in examples/*/; do \
		echo "examples-smoke: $$d"; \
		$(GO) run "./$$d" >/dev/null || exit 1; \
	done

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

# bench-all runs the complete per-figure/ablation benchmark suite.
bench-all: require-go
	$(GO) test -bench=. -benchmem ./...
