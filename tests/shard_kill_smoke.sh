#!/usr/bin/env bash
# Shard-queue kill smoke: two cooperating workers drain one sweep
# through a shared --shard-dir; one worker is SIGKILLed mid-run, the
# survivor steals its expired leases and finishes, and `axmemo merge`
# must then emit reports byte-identical to a single-process run.
#
# Usage: shard_kill_smoke.sh <axmemo-binary>
#
# Host-timing report fields are nondeterministic, so every run uses
# --no-timing; the reference and the merge use the same --jobs so the
# worker-count field of the sweep report matches too.
set -u

AXMEMO=${1:?usage: shard_kill_smoke.sh <axmemo-binary>}
ARTIFACT=fig9
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "shard_kill_smoke: $*" >&2
    exit 1
}

# --- reference: one single-process run -------------------------------
"$AXMEMO" run $ARTIFACT --out "$WORK/ref" --no-timing --jobs 2 \
    > "$WORK/ref_stdout.txt" 2> /dev/null \
    || fail "reference run failed"

# --- victim worker: SIGKILLed while holding a live claim -------------
# A short lease keeps the steal window tight; the retry ladder shortens
# the fuse until the kill lands while the sweep still has work and the
# victim still holds at least one claim file (the steal scenario).
SHARD="$WORK/shards"
interrupted=0
for delay in 2.0 1.0 0.5 0.25 0.1; do
    rm -rf "$SHARD"
    "$AXMEMO" run $ARTIFACT --out "$WORK/merged" --no-timing --jobs 1 \
        --shard-dir "$SHARD" --worker-id victim --lease 1 \
        > /dev/null 2>&1 &
    pid=$!
    sleep "$delay"
    if kill -KILL "$pid" 2>/dev/null; then
        wait "$pid" 2>/dev/null
        if ls "$SHARD"/claims/*.claim > /dev/null 2>&1; then
            interrupted=1
            break
        fi
    else
        wait "$pid" 2>/dev/null
    fi
done
[ "$interrupted" = 1 ] ||
    fail "could not kill the victim while it held a claim"

claims=$(ls "$SHARD"/claims/*.claim | wc -l)
echo "shard_kill_smoke: victim killed holding $claims live claim(s)"

# --- survivor: steals the expired lease and drains the queue ---------
# Two threads: the survivor simulates nearly the whole sweep, the
# longest step of this smoke (most of it in a sanitizer build).
"$AXMEMO" run $ARTIFACT --out "$WORK/merged" --no-timing --jobs 2 \
    --shard-dir "$SHARD" --worker-id survivor --lease 1 \
    > /dev/null 2> "$WORK/survivor_stderr.txt" \
    || fail "survivor worker failed"
grep -q '"stolen":' "$SHARD/shard.survivor.json" ||
    fail "survivor wrote no shard manifest"
stolen=$(sed 's/.*"stolen":\([0-9]*\).*/\1/' \
    "$SHARD/shard.survivor.json")
[ "$stolen" -ge 1 ] ||
    fail "survivor stole no leases (stolen=$stolen)"
echo "shard_kill_smoke: survivor stole $stolen lease(s)"

# --- merge and compare -----------------------------------------------
"$AXMEMO" merge $ARTIFACT --out "$WORK/merged" --no-timing --jobs 2 \
    --shard-dir "$SHARD" \
    > "$WORK/merged_stdout.txt" 2> /dev/null \
    || fail "merge failed"

cmp -s "$WORK/ref_stdout.txt" "$WORK/merged_stdout.txt" ||
    fail "merged stdout differs from single-process run"
for file in ${ARTIFACT}.json ${ARTIFACT}_sweep.json manifest.json; do
    cmp -s "$WORK/ref/$file" "$WORK/merged/$file" ||
        fail "merged $file differs from single-process run"
done
grep -q '"damaged_segments":0' \
    "$WORK/merged/${ARTIFACT}_shards.json" ||
    fail "shards report missing or reports damaged segments"

echo "shard_kill_smoke: OK (survivor stole leases, merge byte-identical)"
exit 0
