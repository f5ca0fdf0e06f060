#!/usr/bin/env bash
# Golden check of the artifact driver: `axmemo run fig9` and `axmemo
# run atm_comparison` stdout at AXMEMO_SCALE=0.02 must be byte-identical
# to the checked-in goldens (tests/golden/*_scale0.02.out, recorded from
# the per-figure harness binaries the driver replaced), serial and
# parallel. Any drift in banner, table layout or number formatting fails
# the diff. Also checks that a malformed numeric flag is a usage error.
#
# usage: artifact_driver_identity.sh <axmemo>
set -eu

driver="$1"
golden="$(cd "$(dirname "$0")" && pwd)/golden"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

export AXMEMO_SCALE=0.02
unset AXMEMO_FULL 2>/dev/null || true

for artifact in fig9 atm_comparison; do
    expected="$golden/${artifact}_scale0.02.out"
    for jobs in 1 4; do
        out="$workdir/$artifact.$jobs"
        AXMEMO_JOBS=$jobs "$driver" run "$artifact" --out "$out" \
            >"$out.stdout" 2>/dev/null
        if ! cmp -s "$expected" "$out.stdout"; then
            echo "$artifact stdout differs from its golden at" \
                 "AXMEMO_JOBS=$jobs:" >&2
            diff "$expected" "$out.stdout" >&2 || true
            exit 1
        fi
        # The driver must also have produced its sidecar files.
        test -s "$out/${artifact}_sweep.json"
        test -s "$out/$artifact.json"
        test -s "$out/manifest.json"
    done
    echo "$artifact stdout matches its golden (serial and parallel)"
done

# A numeric flag takes its env twin's parse rule, but a malformed value
# is a usage error (exit 2 naming the flag), not a silent wrap: -1
# retries used to become 4294967295.
set +e
"$driver" run fig9 --retries -1 >/dev/null 2>"$workdir/retries.err"
code=$?
set -e
if [ "$code" -ne 2 ] || ! grep -q -- "--retries" "$workdir/retries.err"; then
    echo "--retries -1 exited $code, want 2 naming the flag:" >&2
    cat "$workdir/retries.err" >&2
    exit 1
fi
echo "--retries -1 rejected with exit 2"
