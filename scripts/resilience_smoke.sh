#!/bin/sh
# resilience_smoke.sh — end-to-end crash-safety check for the sweep
# checkpoint journal: run a golden (uninterrupted) cachesweep, then run
# the same sweep with a checkpoint and SIGKILL it mid-flight a few
# times, resume to completion, and require the resumed CSV to be
# byte-identical to the golden one. `make resilience-smoke` runs this;
# it is part of `make check`.
#
# Child exit codes are classified strictly (see smoke_lib.sh): 0 is
# success, 3 (resilience.ExitInterrupted) is a resumable graceful
# stop, 137 is acceptable only for a SIGKILL this script itself sent.
# Anything else — a panic, a journal error, an unexplained signal —
# fails the smoke immediately instead of being retried into silence.
set -eu

cd "$(dirname "$0")/.."

SMOKE_NAME=resilience-smoke
. ./scripts/smoke_lib.sh

smoke_require_go

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

bin="$work/cachesweep"
"$GO" build -o "$bin" ./cmd/cachesweep

# One shared trace cache: the warm-up run pays for trace generation, so
# the golden run and the kill/resume attempts all hit the cache and
# every SIGKILL lands in the sweep itself rather than in generation.
args="-workload ccom -scale 2 -workers 2 -lines 16,32 -tracecache $work/tracecache"

# now_ms prints the wall clock in milliseconds (whole seconds where
# date lacks %N).
now_ms() {
    ns=$(date +%s%N)
    case "$ns" in
    *N) echo $(($(date +%s) * 1000)) ;;
    *) echo $((ns / 1000000)) ;;
    esac
}

smoke_log "warm-up run (fills the trace cache)"
# shellcheck disable=SC2086
"$bin" $args > /dev/null

smoke_log "golden run"
start=$(now_ms)
# shellcheck disable=SC2086
"$bin" $args > "$work/golden.csv"
golden_ms=$(($(now_ms) - start))

# Each attempt is killed a fifth of a golden run after it starts. A
# resumed attempt skips only the units already committed, so after two
# kills at least three fifths of the sweep remain and the third kill
# still lands mid-sweep, however fast or slow the host.
delay_ms=$((golden_ms / 5))
if [ "$delay_ms" -lt 10 ]; then
    delay_ms=10
fi
delay=$((delay_ms / 1000)).$(printf '%03d' $((delay_ms % 1000)))
smoke_log "golden run took ${golden_ms}ms; killing each attempt after ${delay}s"

ckpt="$work/sweep.ckpt"
kills=0
interrupts=0
max_kills=3
attempt=0
smoke_log "kill/resume loop (SIGKILL x$max_kills)"
while :; do
    attempt=$((attempt + 1))
    if [ "$attempt" -gt 10 ]; then
        smoke_fail "sweep never completed after $attempt attempts"
    fi
    set +e
    # shellcheck disable=SC2086
    "$bin" $args -checkpoint "$ckpt" > "$work/resumed.csv" 2> "$work/stderr.log" &
    pid=$!
    sent_kill=no
    if [ "$kills" -lt "$max_kills" ]; then
        sleep "$delay"
        if kill -9 "$pid" 2>/dev/null; then
            sent_kill=yes
        fi
    fi
    wait "$pid"
    rc=$?
    set -e
    outcome=$(smoke_classify_exit "$rc" "$sent_kill")
    case "$outcome" in
    ok)
        break
        ;;
    killed)
        kills=$((kills + 1))
        smoke_log "attempt $attempt killed (exit $rc), resuming"
        ;;
    interrupted)
        # Graceful stop (exit 3): checkpointed, resumable — but this
        # script never sends SIGINT/SIGTERM, so surface it for the log
        # and keep resuming rather than miscounting it as a kill.
        interrupts=$((interrupts + 1))
        smoke_log "attempt $attempt interrupted gracefully (exit 3), resuming"
        ;;
    esac
done

if [ "$kills" -lt "$max_kills" ]; then
    smoke_fail "only $kills of $max_kills SIGKILLs landed; an attempt finished inside the kill window"
fi
if [ -e "$ckpt" ]; then
    smoke_fail "completed sweep left its checkpoint behind"
fi
if ! cmp -s "$work/golden.csv" "$work/resumed.csv"; then
    diff "$work/golden.csv" "$work/resumed.csv" | head -20 >&2
    smoke_fail "resumed CSV differs from uninterrupted run"
fi
smoke_log "OK — survived $kills SIGKILLs ($interrupts graceful interrupts), resumed byte-identical"
