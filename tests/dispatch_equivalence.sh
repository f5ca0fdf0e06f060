#!/usr/bin/env bash
# Cross-run equivalence for the host-side speed levers (DESIGN.md
# §10): a serial fig7 smoke run must produce byte-identical stdout,
# reports, and traces whether the simulator takes its lean or its
# general interpreter loop, with or without basic-block batching, and
# with or without the SIMD CRC kernels. The levers change wall-clock
# only; anything they leak into simulated state, stats, or trace lines
# fails the diff here. (The dispatch form, computed goto or switch, is
# fixed per build; CI's portable leg runs this script on the switch.)
#
# Flag choice: the compared traces carry the per-memo-lookup, DRAM,
# LUT and sweep lines — every one stamped with the simulated cycle, so
# any timing divergence shows up immediately — but not the
# per-instruction Exec/Cache lines, which at fig7 size produce
# ~850 MB per run. Exec-level identity is covered by the in-process
# SimEquivalence and LoopEquivalenceTest gtests, which compare full
# SimStats (cycles, uops, event counters) across the same levers. Any
# of these flags sends a run to the general loop, so the lean loop is
# checked by a run with no flags, on stdout and reports. The Host flag
# is excluded too: its one line names the selected levers by design;
# the Host-only runs at the end prove the levers were actually engaged.
set -eu

driver="$1"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

unset AXMEMO_FULL 2>/dev/null || true
unset AXMEMO_DEBUG 2>/dev/null || true
export AXMEMO_JOBS=1

simflags="Memo,Dram,Lut,Sweep"

run() {
    local name="$1" nobatch="$2" nosimd="$3" flags="$4"
    local trace=()
    if [ -n "$flags" ]; then
        trace=(--debug-flags "$flags" --trace-out "$workdir/$name.trace")
    fi
    mkdir -p "$workdir/$name"
    AXMEMO_NO_BATCH="$nobatch" AXMEMO_NO_SIMD="$nosimd" \
        AXMEMO_SWEEP_DIR="$workdir/$name" \
        "$driver" run fig7 --scale 0.0005 --no-timing "${trace[@]}" \
        >"$workdir/$name.stdout" 2>/dev/null
}

same() { # same <name> <artifact-path-relative-to-run>...
    local name="$1"
    shift
    for artifact in "$@"; do
        local ref="$workdir/reference$artifact" got="$workdir/$name$artifact"
        test -s "$got"
        if ! cmp -s "$ref" "$got"; then
            echo "$artifact differs between reference and $name:" >&2
            diff "$ref" "$got" | head -20 >&2
            exit 1
        fi
    done
}

run reference 1 1 "$simflags" # general loop, every lever off
run batched 0 1 "$simflags"
run simd 0 0 "$simflags"
run lean 0 0 "" # no flag: the lean loop

test -s "$workdir/reference.trace" || {
    echo "trace is empty with simulated-state flags enabled" >&2
    exit 1
}

for name in batched simd; do
    same "$name" .stdout .trace /fig7_sweep.json /fig7.json
done
same lean .stdout /fig7_sweep.json /fig7.json

# Host-only runs prove the levers actually selected different paths:
# the Host trace line must name the loop and batching a run took.
run host_lean 0 0 Host
run host_general 1 1 Host
grep -q "loop=lean .*batch=on" "$workdir/host_lean.trace"
grep -q "loop=general .*batch=off" "$workdir/host_general.trace"

echo "dispatch equivalence passed: stdout, reports and traces" \
    "byte-identical across lean/general loop x batch x simd"

# The dispatch form is a build property: the old run-time knob is an
# unknown flag now, a usage error.
set +e
"$driver" run fig7 --scale 0.0005 --out "$workdir/dispatch" \
    --dispatch switch >/dev/null 2>"$workdir/dispatch.err"
code=$?
set -e
if [ "$code" -ne 2 ] || ! grep -q "unknown option '--dispatch'" \
        "$workdir/dispatch.err"; then
    echo "--dispatch exited $code, want 2 as an unknown option:" >&2
    cat "$workdir/dispatch.err" >&2
    exit 1
fi
echo "--dispatch rejected with exit 2"
