#!/usr/bin/env bash
# Kill/resume smoke: a sweep SIGKILLed mid-run and resumed with
# --resume must emit byte-identical reports to an uninterrupted run,
# and a fault-injected run must exit nonzero with per-job status in
# the manifest.
#
# Usage: kill_resume_smoke.sh <axmemo-binary>
#
# Host-timing report fields are nondeterministic, so every run uses
# --no-timing (they are zeroed; see RuntimeOptions::reportTiming).
set -u

AXMEMO=${1:?usage: kill_resume_smoke.sh <axmemo-binary>}
ARTIFACT=fig9
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "kill_resume_smoke: $*" >&2
    exit 1
}

# --- reference: one uninterrupted run --------------------------------
"$AXMEMO" run $ARTIFACT --out "$WORK/ref" --no-timing \
    > "$WORK/ref_stdout.txt" 2> "$WORK/ref_stderr.txt" \
    || fail "reference run failed"
[ -f "$WORK/ref/${ARTIFACT}_sweep.ckpt" ] &&
    fail "successful run left its checkpoint behind"

# --- interrupted run: SIGKILL mid-sweep ------------------------------
# One serial run, SIGKILLed as soon as its checkpoint holds a journaled
# record after the version header: however long the first record takes
# to land (a sanitizer build is many times slower than Release), the
# kill leaves the checkpoint populated and jobs still outstanding.
ckpt="$WORK/part/${ARTIFACT}_sweep.ckpt"
"$AXMEMO" run $ARTIFACT --out "$WORK/part" --no-timing --jobs 1 \
    > /dev/null 2>&1 &
pid=$!
interrupted=0
while kill -0 "$pid" 2>/dev/null; do
    if [ -f "$ckpt" ] && [ "$(grep -c '"key"' "$ckpt")" -ge 1 ]; then
        kill -KILL "$pid" 2>/dev/null && interrupted=1
        break
    fi
    sleep 0.05
done
wait "$pid" 2>/dev/null
[ "$interrupted" = 1 ] && [ -f "$ckpt" ] ||
    fail "could not interrupt a run with a populated checkpoint"

records=$(grep -c '"key"' "$ckpt")
echo "kill_resume_smoke: killed mid-run with $records journaled job(s)"

# --- resume and compare ----------------------------------------------
"$AXMEMO" run $ARTIFACT --out "$WORK/part" --no-timing --resume \
    > "$WORK/part_stdout.txt" 2> /dev/null \
    || fail "resumed run failed"

cmp -s "$WORK/ref_stdout.txt" "$WORK/part_stdout.txt" ||
    fail "resumed stdout differs from uninterrupted run"
for file in ${ARTIFACT}.json ${ARTIFACT}_sweep.json manifest.json; do
    cmp -s "$WORK/ref/$file" "$WORK/part/$file" ||
        fail "resumed $file differs from uninterrupted run"
done
[ -f "$WORK/part/${ARTIFACT}_sweep.ckpt" ] &&
    fail "fully resumed run did not remove its checkpoint"

# --- fault containment: injected failure must surface ----------------
"$AXMEMO" run $ARTIFACT --out "$WORK/faulty" --no-timing --retries 0 \
    --fault-inject blackscholes \
    > /dev/null 2> "$WORK/faulty_stderr.txt"
rc=$?
[ "$rc" -ne 0 ] || fail "fault-injected run exited 0"
grep -q '"status":"failed"' "$WORK/faulty/manifest.json" ||
    fail "manifest lacks failed-job status records"
grep -q '"failed_jobs"' "$WORK/faulty/manifest.json" ||
    fail "manifest lacks aggregate fault counters"

echo "kill_resume_smoke: OK (resume byte-identical, faults contained)"
exit 0
