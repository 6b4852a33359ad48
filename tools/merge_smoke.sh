#!/usr/bin/env bash
#===- tools/merge_smoke.sh - checkpoint/merge end-to-end smoke -----------===#
#
# The merge/checkpoint acceptance scenario as a shell check (run by the
# CI merge-smoke job, plain and under ASan):
#
#   1. record a trace,
#   2. replay it unsplit, dumping the LEAP and OMSG artifacts,
#   3. replay it again as two checkpointed segments (--end-block +
#      --checkpoint-out, then --resume-from), at --threads=1 and 2,
#   4. `orp-trace merge --sequential` the per-segment artifacts,
#   5. byte-compare (sha256) every merged artifact against the unsplit
#      one — DESIGN.md section 17's ground truth,
#   6. check `orp-trace diff` exit codes (0 identical, 1 different,
#      2 unreadable) on LEAP and OMSG artifacts,
#      the union merge path, and that corrupt/truncated artifacts are
#      rejected with a structured error.
#
# Usage: tools/merge_smoke.sh <build-dir>
#
#===----------------------------------------------------------------------===#

set -eu

BUILD="${1:?usage: merge_smoke.sh <build-dir>}"
ORP_TRACE="$BUILD/tools/orp-trace"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

sha() { sha256sum "$1" | cut -d' ' -f1; }

fail() { echo "merge_smoke: FAIL: $*" >&2; exit 1; }

echo "== record =="
"$ORP_TRACE" record list-traversal -o "$WORK/t.orpt" --seed=7 \
  --block-bytes=4096

BLOCKS=$("$ORP_TRACE" info "$WORK/t.orpt" |
  sed -n 's/.*(\([0-9]*\) blocks.*/\1/p' | head -1)
[ -n "$BLOCKS" ] || fail "could not read block count from orp-trace info"
[ "$BLOCKS" -ge 2 ] || fail "trace too small ($BLOCKS blocks) to split"
SPLIT=$((BLOCKS / 2))
echo "trace has $BLOCKS event blocks; splitting at $SPLIT"

echo "== unsplit replay =="
"$ORP_TRACE" replay "$WORK/t.orpt" --profiler=leap \
  --dump-leap="$WORK/unsplit.leap"
"$ORP_TRACE" replay "$WORK/t.orpt" --profiler=whomp \
  --dump-omsg="$WORK/unsplit.omsa"

for THREADS in 1 2; do
  echo "== segmented replay (--threads=$THREADS) =="
  "$ORP_TRACE" replay "$WORK/t.orpt" --profiler=leap --threads="$THREADS" \
    --end-block="$SPLIT" --checkpoint-out="$WORK/ck.orck" \
    --dump-leap="$WORK/seg1.leap"
  "$ORP_TRACE" replay "$WORK/t.orpt" --profiler=leap --threads="$THREADS" \
    --resume-from="$WORK/ck.orck" --dump-leap="$WORK/seg2.leap"
  "$ORP_TRACE" replay "$WORK/t.orpt" --profiler=whomp --threads="$THREADS" \
    --end-block="$SPLIT" --checkpoint-out="$WORK/ckw.orck" \
    --dump-omsg="$WORK/seg1.omsa"
  "$ORP_TRACE" replay "$WORK/t.orpt" --profiler=whomp --threads="$THREADS" \
    --resume-from="$WORK/ckw.orck" --dump-omsg="$WORK/seg2.omsa"

  "$ORP_TRACE" merge --sequential \
    "$WORK/seg1.leap" "$WORK/seg2.leap" -o "$WORK/merged.leap"
  "$ORP_TRACE" merge --sequential \
    "$WORK/seg1.omsa" "$WORK/seg2.omsa" -o "$WORK/merged.omsa"

  [ "$(sha "$WORK/merged.leap")" = "$(sha "$WORK/unsplit.leap")" ] ||
    fail "merged LEAP profile differs from unsplit (threads=$THREADS)"
  [ "$(sha "$WORK/merged.omsa")" = "$(sha "$WORK/unsplit.omsa")" ] ||
    fail "merged OMSG archive differs from unsplit (threads=$THREADS)"
  echo "byte-identical at threads=$THREADS"
done

echo "== diff exit codes =="
"$ORP_TRACE" diff "$WORK/merged.leap" "$WORK/unsplit.leap" ||
  fail "diff of identical profiles must exit 0"
if "$ORP_TRACE" diff "$WORK/seg1.leap" "$WORK/unsplit.leap"; then
  fail "diff of different profiles must exit nonzero"
fi
# OMSA diff past the byte-equal early exit: a merged archive equals the
# unsplit one, a segment's streams differ, a corrupt archive is
# unreadable.
"$ORP_TRACE" diff "$WORK/merged.omsa" "$WORK/unsplit.omsa" ||
  fail "diff of identical OMSG archives must exit 0"
set +e
"$ORP_TRACE" diff "$WORK/seg1.omsa" "$WORK/unsplit.omsa" > "$WORK/diff.out"
STATUS=$?
set -e
[ "$STATUS" -eq 1 ] || fail "diff of different OMSG archives exited $STATUS"
grep -q "streams differ" "$WORK/diff.out" ||
  fail "diff of different OMSG archives did not report differing streams"
cp "$WORK/unsplit.omsa" "$WORK/flip.omsa"
printf '\xff' | dd of="$WORK/flip.omsa" bs=1 seek=40 conv=notrunc 2>/dev/null
set +e
"$ORP_TRACE" diff "$WORK/flip.omsa" "$WORK/unsplit.omsa" 2>/dev/null
STATUS=$?
set -e
[ "$STATUS" -eq 2 ] || fail "diff of a corrupt OMSG archive exited $STATUS"

echo "== union merge =="
# Union of a profile with itself doubles the counters but stays valid,
# and merging in either order gives identical bytes.
"$ORP_TRACE" merge "$WORK/seg1.leap" "$WORK/seg2.leap" -o "$WORK/u12.leap"
"$ORP_TRACE" merge "$WORK/seg2.leap" "$WORK/seg1.leap" -o "$WORK/u21.leap"
[ "$(sha "$WORK/u12.leap")" = "$(sha "$WORK/u21.leap")" ] ||
  fail "union merge is not commutative"
# OMSG archives of independent runs fold into an OMST digest.
"$ORP_TRACE" merge "$WORK/seg1.omsa" "$WORK/seg2.omsa" -o "$WORK/fleet.omst"
"$ORP_TRACE" diff "$WORK/fleet.omst" "$WORK/fleet.omst" ||
  fail "diff of an OMST digest with itself must exit 0"

echo "== hardened readers =="
# Truncated and corrupted artifacts must be rejected (exit nonzero),
# never crash or hang.
head -c 13 "$WORK/unsplit.leap" > "$WORK/trunc.leap"
if "$ORP_TRACE" merge --sequential "$WORK/trunc.leap" "$WORK/seg2.leap" \
     -o "$WORK/bad.leap" 2>/dev/null; then
  fail "merge accepted a truncated profile"
fi
cp "$WORK/unsplit.leap" "$WORK/flip.leap"
printf '\xff' | dd of="$WORK/flip.leap" bs=1 seek=40 conv=notrunc 2>/dev/null
if "$ORP_TRACE" diff "$WORK/flip.leap" "$WORK/unsplit.leap"; then
  fail "diff accepted a corrupted profile as identical"
fi
head -c 20 "$WORK/ck.orck" > "$WORK/trunc.orck"
if "$ORP_TRACE" replay "$WORK/t.orpt" --profiler=leap \
     --resume-from="$WORK/trunc.orck" 2>/dev/null; then
  fail "replay accepted a truncated checkpoint"
fi

echo "merge_smoke: PASS"
