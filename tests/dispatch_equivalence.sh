#!/usr/bin/env bash
# Cross-binary equivalence for the host-side speed levers (DESIGN.md
# §10): a serial fig7 smoke run must produce byte-identical stdout,
# reports, and traces whether the interpreter uses switch or threaded
# dispatch, with or without basic-block batching, and with or without
# the SIMD CRC kernels. The levers change wall-clock only; anything
# they leak into simulated state, stats, or trace lines fails the diff
# here.
#
# Flag choice: the compared traces carry the per-memo-lookup, DRAM,
# LUT and sweep lines — every one stamped with the simulated cycle, so
# any timing divergence shows up immediately — but not the
# per-instruction Exec/Cache lines, which at fig7 size produce
# ~850 MB per run. Exec-level identity is covered by the in-process
# SimEquivalence gtest, which compares full SimStats (cycles, uops,
# event counters) across the same lever matrix. The Host flag is also
# excluded: its one line names the selected levers by design; the
# Host-only runs at the end prove the levers were actually engaged.
set -eu

driver="$1"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

unset AXMEMO_FULL 2>/dev/null || true
unset AXMEMO_DEBUG 2>/dev/null || true
export AXMEMO_JOBS=1

simflags="Memo,Dram,Lut,Sweep"

run() {
    local name="$1" dispatch="$2" nobatch="$3" nosimd="$4" flags="$5"
    mkdir -p "$workdir/$name"
    AXMEMO_DISPATCH="$dispatch" AXMEMO_NO_BATCH="$nobatch" \
        AXMEMO_NO_SIMD="$nosimd" AXMEMO_SWEEP_DIR="$workdir/$name" \
        "$driver" run fig7 --scale 0.0005 --no-timing \
        --debug-flags "$flags" --trace-out "$workdir/$name.trace" \
        >"$workdir/$name.stdout" 2>/dev/null
}

run reference switch 1 1 "$simflags" # every lever off: portable baseline
run threaded threaded 1 1 "$simflags"
run batched threaded 0 1 "$simflags"
run simd threaded 0 0 "$simflags"

test -s "$workdir/reference.trace" || {
    echo "trace is empty with simulated-state flags enabled" >&2
    exit 1
}

for name in threaded batched simd; do
    for artifact in stdout trace; do
        if ! cmp -s "$workdir/reference.$artifact" \
                "$workdir/$name.$artifact"; then
            echo "$artifact differs between reference and $name:" >&2
            diff "$workdir/reference.$artifact" \
                "$workdir/$name.$artifact" | head -20 >&2
            exit 1
        fi
    done
    for report in fig7_sweep.json fig7.json; do
        test -s "$workdir/$name/$report"
        if ! cmp -s "$workdir/reference/$report" \
                "$workdir/$name/$report"; then
            echo "$report differs between reference and $name:" >&2
            diff "$workdir/reference/$report" \
                "$workdir/$name/$report" | head -20 >&2
            exit 1
        fi
    done
done

# Host-only runs prove the knobs actually selected different paths:
# the Host trace line must name the requested levers. (In a portable
# build `threaded` falls back to switch, so only batching is asserted
# on the second line.)
run host_ref switch 1 1 Host
run host_fast threaded 0 0 Host
grep -q "dispatch=switch batch=off" "$workdir/host_ref.trace"
grep -q "batch=on" "$workdir/host_fast.trace"

echo "dispatch equivalence passed: stdout, reports and traces" \
    "byte-identical across switch/threaded x batch x simd"
