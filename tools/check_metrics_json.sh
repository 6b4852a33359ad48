#!/usr/bin/env bash
#===- tools/check_metrics_json.sh - MetricsSnapshot JSON schema check ----===#
#
# Validates a telemetry snapshot produced by `orp-trace stats --metrics=...`
# or `orp-trace replay --metrics=...` against the version-1 exporter
# layout (src/telemetry/Snapshot.h):
#
#   {"version":1,
#    "counters":{name:uint,...},
#    "gauges":{name:int,...},
#    "histograms":{name:{"count":uint,"sum":uint,
#                        "buckets":[{"le":uint|null,"count":uint},...]},...},
#    "timers":{name:{"count":uint,"total_ns":uint},...}}
#
# Usage: tools/check_metrics_json.sh FILE [FILE...]
#   Multi-line files are validated object by object when each line is a
#   snapshot (the --metrics-interval JSONL stream) or as one pretty
#   document otherwise. Exit 1 on the first schema violation.
#
# Used by the CI metrics-smoke job; needs jq.
#===----------------------------------------------------------------------===#

set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 FILE [FILE...]" >&2
  exit 2
fi

# One jq program, run with --slurp so both a single pretty document and
# a JSONL stream of compact documents validate the same way.
SCHEMA='
  length > 0 and
  all(.[];
    .version == 1
    and (.counters | type == "object")
    and (.gauges | type == "object")
    and (.histograms | type == "object")
    and (.timers | type == "object")
    and ([.counters[] | select((type != "number") or . < 0)] == [])
    and ([.gauges[] | select(type != "number")] == [])
    and ([.histograms[]
          | select((.count | type) != "number"
                   or (.sum | type) != "number"
                   or (.buckets | type) != "array"
                   or ([.buckets[]
                        | select(((.le | type) != "number"
                                  and .le != null)
                                 or (.count | type) != "number")] != [])
                   # Bucket counts must add up to the histogram count.
                   or ((.count) != ([.buckets[].count] | add // 0)))]
         == [])
    and ([.timers[]
          | select((.count | type) != "number"
                   or (.total_ns | type) != "number")] == [])
    # The pipeline instruments these unconditionally; their absence
    # means the exporter or the instrumentation regressed. replay.total
    # is registered when ProfileSession::replayFrom starts, so it is in
    # every replay/stats snapshot, interval lines included.
    and (.counters | has("cdc.batches"))
    and (.gauges | has("omc.translations"))
    and (.gauges | has("log.error"))
    and (.timers | has("replay.total"))
  )
'

for FILE in "$@"; do
  if ! jq -e --slurp "$SCHEMA" "$FILE" >/dev/null; then
    echo "check_metrics_json: $FILE does not match the version-1 snapshot schema" >&2
    exit 1
  fi
  echo "check_metrics_json: $FILE ok"
done
