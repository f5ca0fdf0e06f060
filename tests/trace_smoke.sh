#!/usr/bin/env bash
# Trace-smoke for the observability layer (DESIGN.md §8):
#   1. Two serial runs of a small artifact with EVERY debug flag enabled
#      must emit a non-empty, byte-identical trace — trace lines carry
#      only simulated state (cycle, component, event), never host
#      wall-clock, so serial traces are reproducible by construction.
#   2. The emitted stats.txt must parse, and every distribution must
#      agree with its scalar twin (streak sum == hits, latency samples
#      == lookups, invocation sum == region entries, occupancy sum ==
#      valid lines) in every section.
set -eu

driver="$1"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

unset AXMEMO_FULL 2>/dev/null || true
unset AXMEMO_DEBUG 2>/dev/null || true
export AXMEMO_JOBS=1

run() {
    mkdir -p "$workdir/out$1"
    AXMEMO_SWEEP_DIR="$workdir/out$1" \
        "$driver" run ablate_quality_monitor --scale 0.001 \
        --debug-flags All --trace-out "$workdir/trace$1.txt" \
        >"$workdir/stdout$1.txt" 2>/dev/null
}
run 1
run 2

test -s "$workdir/trace1.txt" || {
    echo "trace is empty with --debug-flags All" >&2
    exit 1
}
if ! cmp -s "$workdir/trace1.txt" "$workdir/trace2.txt"; then
    echo "serial all-flags traces differ between identical runs:" >&2
    diff "$workdir/trace1.txt" "$workdir/trace2.txt" | head -20 >&2
    exit 1
fi
cmp "$workdir/stdout1.txt" "$workdir/stdout2.txt"

# Every enabled component must actually have traced something.
for component in exec memo mem lut sweep; do
    if ! grep -q ": $component: " "$workdir/trace1.txt"; then
        echo "no '$component:' lines in the all-flags trace" >&2
        exit 1
    fi
done

stats="$workdir/out1/ablate_quality_monitor_stats.txt"
test -s "$stats"

python3 - "$stats" <<'EOF'
import re
import sys

path = sys.argv[1]
sections = []
rows = None
with open(path) as f:
    for line in f:
        line = line.rstrip("\n")
        if line.startswith("---------- Begin"):
            rows = {}
            continue
        if line.startswith("---------- End"):
            sections.append(rows)
            rows = None
            continue
        if rows is None or not line.strip():
            continue
        body = line.split(" # ")[0]
        m = re.match(r"^(\S+)\s+(\S+)$", body.strip())
        if not m:
            raise SystemExit(f"unparseable stats row: {line!r}")
        rows[m.group(1)] = m.group(2)

if not sections:
    raise SystemExit("no statistics sections found")

checks = [
    ("memo_hit_streak::sum", "memo_hits"),
    ("memo_lookup_latency::samples", "memo_lookups"),
    ("region_invocations::sum", "region_entries"),
    ("l2_set_occupancy::sum", "l2_valid_lines"),
]
for i, rows in enumerate(sections):
    for dist_key, scalar_key in checks:
        if int(rows[dist_key]) != int(rows[scalar_key]):
            raise SystemExit(
                f"section {i}: {dist_key}={rows[dist_key]} != "
                f"{scalar_key}={rows[scalar_key]}")
    # ::total is the bucket-row terminator and must equal ::samples.
    for key, value in rows.items():
        if key.endswith("::total"):
            base = key[: -len("::total")]
            if int(value) != int(rows[base + "::samples"]):
                raise SystemExit(f"section {i}: {key} mismatch")

print(f"{len(sections)} stats sections parsed, "
      "all distribution/scalar cross-checks hold")
EOF

echo "trace smoke passed: deterministic all-flags trace, consistent stats"
