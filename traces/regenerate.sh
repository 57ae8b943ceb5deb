#!/usr/bin/env sh
# Regenerates the checked-in trace corpus: one small .ddmtrc per paper
# workload, recorded by webserver_sim at a tiny scale so each file stays
# in the tens-of-kilobytes range while still carrying real per-workload
# structure (call mix, size distribution, realloc rate) — then a small
# synthesized fleet shard set (traces/synth/) composed from that corpus
# by tracesynth.
#
# Generator and synthesizer are deterministic, so re-running this script
# on an unchanged tree must reproduce every file byte for byte — CI
# relies on that to catch accidental format, generator, or synthesizer
# drift.
#
# Usage: traces/regenerate.sh [build-dir]   (default: ./build)

set -eu

BUILD="${1:-build}"
SIM="$BUILD/examples/webserver_sim"
STAT="$BUILD/tools/tracestat"
SYNTH="$BUILD/tools/tracesynth"
DIR="$(dirname "$0")"

[ -x "$SIM" ] || { echo "error: $SIM not built (cmake --build $BUILD)" >&2; exit 1; }
[ -x "$SYNTH" ] || { echo "error: $SYNTH not built (cmake --build $BUILD)" >&2; exit 1; }
[ -x "$STAT" ] || { echo "error: $STAT not built (cmake --build $BUILD)" >&2; exit 1; }

SCALE=0.002
TX=2
SEED=7

for W in mediawiki-read mediawiki-write sugarcrm ezpublish phpbb cakephp \
         specweb rails; do
  OUT="$DIR/$W.ddmtrc"
  "$SIM" --workload "$W" --scale "$SCALE" --transactions "$TX" --seed "$SEED" \
    --record-trace "$OUT" >/dev/null
  echo "recorded $OUT"
done

"$STAT" "$DIR"/*.ddmtrc

# The checked-in fleet sample: 3 shards of a diurnal multi-tenant mix over
# the whole corpus — big enough to exercise sharded replay and the mmap
# batch path across frame boundaries, small enough to live in git. The CI
# replay job synthesizes its own much larger shard set with the same tool.
mkdir -p "$DIR/synth"
"$SYNTH" --out "$DIR/synth/fleet" --shards 3 --workers 48 \
  --transactions 48 --schedule diurnal --seed 7 \
  "$DIR"/mediawiki-read.ddmtrc "$DIR"/mediawiki-write.ddmtrc \
  "$DIR"/sugarcrm.ddmtrc "$DIR"/ezpublish.ddmtrc "$DIR"/phpbb.ddmtrc \
  "$DIR"/cakephp.ddmtrc "$DIR"/specweb.ddmtrc "$DIR"/rails.ddmtrc

"$STAT" "$DIR"/synth/fleet.*.ddmtrc
