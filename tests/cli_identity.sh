#!/bin/sh
# CLI <-> campaign identity: a registry verb must print exactly the metrics
# the campaign row of the same grid cell stores.
#
#   tests/cli_identity.sh NBTISIM SPEC WORKDIR VERB [FLAGS...]
#
# Runs SPEC (a one-cell campaign on c432 whose params equal the CLI
# defaults plus FLAGS), summarizes it as CSV, runs `NBTISIM VERB c432
# FLAGS...`, and compares every `| metric | value |` row the verb prints
# with the VERB row of the summary, as text. Exits non-zero on the first
# difference, on a metric missing from either side, or on no rows at all.
set -eu
nbtisim=$1 spec=$2 work=$3 verb=$4
shift 4
stem="$work/cli_identity_$verb"
rm -f "$stem".results*.jsonl
"$nbtisim" campaign run "$spec" --out "$stem.results.jsonl" >/dev/null 2>&1
"$nbtisim" campaign summarize "$spec" --out "$stem.results.jsonl" \
  --format csv > "$stem.csv"
"$nbtisim" "$verb" c432 "$@" > "$stem.md"

awk -F, -v verb="$verb" '
  # Pass 1: the summary CSV. Keep the VERB row as metric -> value.
  FNR == NR {
    if (FNR == 1) {
      for (i = 1; i <= NF; ++i) name[i] = $i
    } else if ($6 == verb) {
      for (i = 7; i <= NF; ++i) if ($i != "") row[name[i]] = $i
    }
    next
  }
  # Pass 2: the verb output, "| metric | value |" rows.
  /^\| / && !/^\| metric \|/ {
    split($0, cell, "|")
    metric = cell[2]; value = cell[3]
    gsub(/ /, "", metric); gsub(/ /, "", value)
    if (!(metric in row)) { print "missing in campaign row: " metric; bad = 1 }
    else if (row[metric] != value) {
      print metric ": cli " value " vs campaign " row[metric]; bad = 1
    }
    seen[metric] = 1; ++n
  }
  END {
    for (m in row) if (!(m in seen)) { print "missing in cli: " m; bad = 1 }
    if (n == 0) { print "no metric rows printed"; bad = 1 }
    if (bad) exit 1
    print verb ": " n " metrics identical to the campaign row"
  }
' "$stem.csv" "$stem.md"
