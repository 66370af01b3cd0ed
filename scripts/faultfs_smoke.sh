#!/bin/sh
# faultfs_smoke.sh — storage-fault chaos smoke for simserved: the
# serve_smoke chaos plan (concurrent tenants + SIGKILLs + graceful
# drain) with the state directory mounted on a fault-injecting
# filesystem (-faultfs): torn writes, ENOSPC and failed renames hit
# the job records and the sweep checkpoints while the server runs.
#
# The pass criteria are the strongest the repo has: simload exits 0
# only if every admitted job survived, every result came back
# byte-identical to a locally computed golden, and shedding was
# bounded — now with the disk actively eating writes underneath the
# durability layer. Read faults (eio) are excluded: a disk that cannot
# be read is not recoverable-from by software, and the crash harness
# in internal/resilience covers that surface separately.
# `make faultfs-smoke` runs this; it is part of `make check`.
set -eu

cd "$(dirname "$0")/.."

SMOKE_NAME=faultfs-smoke
. ./scripts/smoke_lib.sh

smoke_require_go

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

smoke_log "building simserved and simload with -race"
"$GO" build -race -o "$work/simserved" ./cmd/simserved
"$GO" build -race -o "$work/simload" ./cmd/simload

# Pre-create the state tree so an injected fault on the startup
# MkdirAll cannot kill a restarting server (serve.New tolerates a
# failed mkdir of an existing directory, like the real syscall).
mkdir -p "$work/state/sweeps" "$work/tracecache"

# Offset from serve_smoke's port formula so parallel checks and the
# sibling smoke do not collide.
port=$((20000 + ($$ + 7919) % 20000))

plan="seed=7,rate=0.05,kinds=torn+enospc+rename"
smoke_log "chaos run: 24 clients, 2 SIGKILLs, fault plan $plan, port $port"
set +e
"$work/simload" \
    -addr "127.0.0.1:$port" \
    -spawn "$work/simserved" \
    -state "$work/state" \
    -server-flags "-queue 12 -per-tenant 2 -jobs 2 -tracecache $work/tracecache -faultfs $plan" \
    -tracecache "$work/tracecache" \
    -clients 24 -jobs 1 -events 40000 \
    -kills 2 -kill-every 1500ms \
    -timeout 4m 2>"$work/log"
rc=$?
set -e
cat "$work/log" >&2
if [ "$rc" -ne 0 ]; then
    smoke_fail "simload reported violations under storage faults (exit $rc)"
fi
if ! grep -q "fault injection armed" "$work/log"; then
    smoke_fail "server never armed the fault plan — the smoke tested nothing"
fi
tally=$(grep "fault injection tally" "$work/log" | tail -n 1 || true)
smoke_log "final server segment ${tally:-reported no tally}"
smoke_log "OK — golden results and zero lost jobs despite injected storage faults and 2 SIGKILLs"
