#!/usr/bin/env bash
# Golden check of the artifact driver: `axmemo run fig9` and `axmemo
# run atm_comparison` stdout at AXMEMO_SCALE=0.02 must be byte-identical
# to the checked-in goldens (tests/golden/*_scale0.02.out, recorded from
# the per-figure harness binaries the driver replaced), serial and
# parallel. Any drift in banner, table layout or number formatting fails
# the diff. Also checks that a malformed value, from a flag or from the
# environment, is a usage error.
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

# A flag and its variable share one parse rule, and the driver rejects
# a malformed value from either the same way: exit 2 naming the flag or
# variable and what the rule wants, not a silent wrap (-1 retries used
# to become 4294967295) or a silently kept default.
rejects() { # <name> <want> <command...>
    local name="$1" want="$2"
    shift 2
    set +e
    "$@" >/dev/null 2>"$workdir/rejected.err"
    local code=$?
    set -e
    if [ "$code" -ne 2 ] ||
        ! grep -q -- "^$name wants $want" "$workdir/rejected.err"; then
        echo "malformed $name exited $code, want 2 and" \
             "'$name wants $want':" >&2
        cat "$workdir/rejected.err" >&2
        exit 1
    fi
    echo "malformed $name rejected with exit 2"
}
rejects --retries "an integer in \[0, 64\]" "$driver" run fig9 --retries -1
rejects AXMEMO_RETRIES "an integer in \[0, 64\]" \
    env AXMEMO_RETRIES=-1 "$driver" run fig9
rejects AXMEMO_SCALE "a positive number" \
    env AXMEMO_SCALE=abc "$driver" run fig9
rejects AXMEMO_DEBUG "flags from" env AXMEMO_DEBUG=Bogus "$driver" run fig9

# "0" stays the accepted spelling of a switch's default.
AXMEMO_NO_BATCH=0 "$driver" run fig9 --out "$workdir/nobatch0" \
    >"$workdir/nobatch0.stdout" 2>/dev/null
cmp -s "$golden/fig9_scale0.02.out" "$workdir/nobatch0.stdout"
echo "AXMEMO_NO_BATCH=0 runs and matches the golden"
