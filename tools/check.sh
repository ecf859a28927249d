#!/usr/bin/env bash
# Full pre-merge check: build + test every CMake preset that gates a merge.
#
#   tools/check.sh            # default + sanitize + tsan-determinism
#   tools/check.sh --fast     # default preset only (full ctest)
#
# Presets (CMakePresets.json):
#   default           RelWithDebInfo, full ctest suite
#   sanitize          ASan build, `ctest -L 'determinism|hardening'` slices
#                     (thread-count bit-identity, differential oracles and
#                     the .bench/.v mutation harness)
#   tsan-determinism  TSan build, determinism slice via its test preset
#                     (bit-identity across thread counts must hold data-race
#                     clean — the work pool's core contract)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() {
  echo "== $*" >&2
  "$@"
}

run cmake --preset default
run cmake --build --preset default -j "$JOBS"
run ctest --preset default -j "$JOBS"

# Query/serve smoke: a tiny campaign through the indexed `campaign query`
# path and the stdio server, diffed against golden transcripts (byte
# equality IS the contract — stores and query answers are deterministic).
QSMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$QSMOKE_DIR"' EXIT
NBTISIM=build/src/tools/nbtisim
run "$NBTISIM" campaign run examples/campaign_smoke.json \
  --out "$QSMOKE_DIR/results.jsonl"
"$NBTISIM" campaign query examples/campaign_smoke.json \
  --out "$QSMOKE_DIR/results.jsonl" \
  --query-file examples/campaign_query.json > "$QSMOKE_DIR/query.md"
run diff -u tools/golden/campaign_query.md "$QSMOKE_DIR/query.md"
printf '%s\n%s\n' \
  '{"where":{"analysis":"st"},"select":["netlist","t_standby","st_total_pct"]}' \
  '{"agg":{"op":"count","by":["netlist","analysis"]}}' \
  | "$NBTISIM" campaign serve examples/campaign_smoke.json \
      --out "$QSMOKE_DIR/results.jsonl" 2>/dev/null > "$QSMOKE_DIR/serve.txt"
run diff -u tools/golden/campaign_serve.txt "$QSMOKE_DIR/serve.txt"
echo "check.sh: query/serve smoke matches golden transcripts"

# Aging bench schema smoke: write BENCH_aging.json (timings and all — the
# numbers vary per machine, the key set must not) and diff its sorted JSON
# key set against the expected list.  Catches silently dropped or renamed
# bench cases/fields — e.g. the SoA kernel section going missing —
# without pinning machine-dependent timings.
BENCH_BIN="$PWD/build/bench/bench_perf_micro"
(cd "$QSMOKE_DIR" && run "$BENCH_BIN" --aging-json-only)
grep -o '"[A-Za-z_0-9]*":' "$QSMOKE_DIR/BENCH_aging.json" | sort -u \
  > "$QSMOKE_DIR/bench_aging_keys.txt"
run diff -u tools/golden/bench_aging_keys.txt "$QSMOKE_DIR/bench_aging_keys.txt"
echo "check.sh: BENCH_aging.json key set matches tools/golden/bench_aging_keys.txt"

# Incremental-STA bench smoke: same key-set contract for BENCH_sta.json,
# plus a hard gate on the bit_identical flags — the incremental engine must
# agree with the full forward pass at every scale, every run.
(cd "$QSMOKE_DIR" && run "$BENCH_BIN" --sta-json-only)
grep -o '"[A-Za-z_0-9]*":' "$QSMOKE_DIR/BENCH_sta.json" | sort -u \
  > "$QSMOKE_DIR/bench_sta_keys.txt"
run diff -u tools/golden/bench_sta_keys.txt "$QSMOKE_DIR/bench_sta_keys.txt"
if grep -q '"bit_identical": false' "$QSMOKE_DIR/BENCH_sta.json"; then
  echo "check.sh: BENCH_sta.json reports a full-vs-incremental MISMATCH" >&2
  exit 1
fi
echo "check.sh: BENCH_sta.json key set matches tools/golden/bench_sta_keys.txt"

if [[ "$FAST" == 1 ]]; then
  echo "check.sh: fast mode — skipped sanitize and tsan-determinism presets"
  exit 0
fi

run cmake --preset sanitize
run cmake --build --preset sanitize -j "$JOBS"
run ctest --test-dir build-asan -L 'determinism|hardening' -j "$JOBS" --output-on-failure

run cmake --preset tsan-determinism
run cmake --build --preset tsan-determinism -j "$JOBS"
run ctest --preset tsan-determinism -j "$JOBS"
# The differential suite (SoA kernel vs scalar model, optimized paths vs
# naive reference evaluators) is part of the determinism label above; run it by name too so
# a label regression can't silently drop it from the TSan gate.
run ctest --test-dir build-tsan -R "Differential" -j "$JOBS" --output-on-failure

echo "check.sh: all presets green"
