#!/usr/bin/env bash
# Builds Release, runs the simulator-core perf bench plus one end-to-end
# bench, and fails if single-thread events/sec regressed more than 20%
# against the checked-in baseline (tools/bench_baseline.json).
#
# The comparison is machine-speed-normalized: each bench_sim_perf run also
# measures an inline replica of the legacy queue on the same machine in the
# same process, so the gate compares current/legacy throughput RATIOS. An
# absolute events/sec comparison would flag every run on a slower or noisier
# box than the one that produced the baseline.
#
# Usage: tools/run_benches.sh [build-dir]    (default: build-bench)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-bench}"
BASELINE="$REPO_ROOT/tools/bench_baseline.json"
RESULT="$BUILD_DIR/BENCH_sim_perf.json"
FLEET_RESULT="$BUILD_DIR/BENCH_fleet_scale.json"
PLANNER_RESULT="$BUILD_DIR/BENCH_planner.json"
FAILOVER_RESULT="$BUILD_DIR/BENCH_failover.json"
MAX_REGRESSION_PCT=20
# Goodput retention through the crash-storm (dispatcher kill + 2 instance
# failures) must stay above this floor; the run is deterministic, so a dip
# means the failover path itself got slower, not the machine.
FAILOVER_RETENTION_FLOOR=0.90

echo "== Configuring Release build in $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD_DIR" -j --target bench_sim_perf bench_fig13_stricter_slos \
  bench_overload bench_fleet_scale bench_planner bench_failover > /dev/null

echo "== Running bench_sim_perf"
"$BUILD_DIR/bench/bench_sim_perf" "$RESULT"

echo
echo "== Running bench_fig13_stricter_slos (e2e smoke)"
"$BUILD_DIR/bench/bench_fig13_stricter_slos"

echo
echo "== Running bench_overload (serving-proxy goodput gate)"
# Exits nonzero unless the proxy strictly improves goodput at 2x load for
# Aegaeon and the ServerlessLLM baseline.
"$BUILD_DIR/bench/bench_overload"

echo
echo "== Running bench_fleet_scale (sharded fleet executor)"
# Exits nonzero if results diverge across shard counts.
"$BUILD_DIR/bench/bench_fleet_scale" "$FLEET_RESULT"

echo
echo "== Running bench_planner (capacity-planner cost gate)"
# Exits nonzero unless the certified heterogeneous plan beats the best
# homogeneous pool by >= 10% at the reference rate, bit-identically.
"$BUILD_DIR/bench/bench_planner" "$PLANNER_RESULT"

echo
echo "== Running bench_failover (control-plane crash-storm gate)"
# Exits nonzero on shard-count divergence through the failover, on any
# lost request, or if the storm never actually exercised an election.
"$BUILD_DIR/bench/bench_failover" "$FAILOVER_RESULT"

json_field() {  # json_field <file> <key>  — first "key": <number> match
  sed -n "s/.*\"$2\": *\([0-9.]*\).*/\1/p" "$1" | head -1
}

current=$(json_field "$RESULT" events_per_sec)
current_legacy=$(json_field "$RESULT" legacy_events_per_sec)
baseline=$(json_field "$BASELINE" events_per_sec)
baseline_legacy=$(json_field "$BASELINE" legacy_events_per_sec)
identical=$(sed -n 's/.*"identical_results": *\(true\|false\).*/\1/p' "$RESULT")
cores=$(json_field "$RESULT" hardware_concurrency)
speedup=$(json_field "$RESULT" speedup)

current_ratio=$(awk -v c="$current" -v l="$current_legacy" 'BEGIN { printf "%.3f", c / l }')
baseline_ratio=$(awk -v c="$baseline" -v l="$baseline_legacy" 'BEGIN { printf "%.3f", c / l }')

echo
echo "== Regression gate"
echo "   queue speedup over legacy: current=${current_ratio}x baseline=${baseline_ratio}x" \
     "(max regression ${MAX_REGRESSION_PCT}%)"

if [ "$identical" != "true" ]; then
  echo "FAIL: parallel sweep diverged from serial results" >&2
  exit 1
fi

# current ratio must be >= baseline ratio * (1 - MAX_REGRESSION_PCT/100)
ok=$(awk -v c="$current_ratio" -v b="$baseline_ratio" -v m="$MAX_REGRESSION_PCT" \
  'BEGIN { print (c >= b * (1 - m / 100.0)) ? "yes" : "no" }')
if [ "$ok" != "yes" ]; then
  echo "FAIL: queue speedup over legacy regressed more than ${MAX_REGRESSION_PCT}% vs baseline" >&2
  exit 1
fi

# The >=3x sweep speedup claim only applies on >=4 cores; report otherwise.
# bench_sim_perf times each leg as the minimum of 3 alternating repetitions,
# so one burst of machine load cannot flip the gate.
if awk -v n="$cores" 'BEGIN { exit !(n >= 4) }'; then
  if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 3.0) }'; then
    echo "FAIL: sweep speedup ${speedup}x < 3x on a ${cores}-core machine" >&2
    exit 1
  fi
  echo "   sweep speedup: ${speedup}x on ${cores} cores (>= 3x required)"
else
  echo "   sweep speedup: ${speedup}x on ${cores} core(s) (3x gate requires >= 4 cores; skipped)"
fi

# --- Fleet-scale gate -------------------------------------------------------
# Determinism is a hard invariant: results must be bit-identical across shard
# counts, repeats, and (for one cell) against a plain AegaeonCluster run on
# every machine. Epoch skipping must keep a >=2x executed-epoch reduction on
# the 256-GPU reference pool — both counts are deterministic, so that gate
# is machine-independent and always on. Throughput uses the same ratio
# normalization as the queue gate (single-shard fleet eps vs an in-process
# 16-GPU reference); the >=1.5x 8-shard speedup at >=512 GPUs only applies
# on >=4 cores (below that the gang runs nearly inline).
fleet_identical=$(sed -n 's/.*"identical_results": *\(true\|false\).*/\1/p' "$FLEET_RESULT")
fleet_single_cell=$(sed -n 's/.*"single_cell_identical": *\(true\|false\).*/\1/p' "$FLEET_RESULT")
fleet_ratio=$(json_field "$FLEET_RESULT" fleet_ratio)
fleet_baseline_ratio=$(json_field "$BASELINE" fleet_ratio)
fleet_speedup=$(json_field "$FLEET_RESULT" best_large_pool_speedup)
fleet_epoch_reduction=$(json_field "$FLEET_RESULT" epoch_reduction)

echo
echo "== Fleet-scale gate"
echo "   fleet/reference throughput ratio: current=${fleet_ratio} baseline=${fleet_baseline_ratio}" \
     "(max regression ${MAX_REGRESSION_PCT}%)"

if [ "$fleet_identical" != "true" ]; then
  echo "FAIL: sharded fleet diverged across shard counts or repeats" >&2
  exit 1
fi

if [ "$fleet_single_cell" != "true" ]; then
  echo "FAIL: 1-cell fleet diverged from plain AegaeonCluster::Run" >&2
  exit 1
fi

if ! awk -v r="$fleet_epoch_reduction" 'BEGIN { exit !(r >= 2.0) }'; then
  echo "FAIL: epoch skipping reduction ${fleet_epoch_reduction}x < 2x on the 256-GPU pool" >&2
  exit 1
fi
echo "   epoch reduction at 256 GPUs: ${fleet_epoch_reduction}x (>= 2x required)"

ok=$(awk -v c="$fleet_ratio" -v b="$fleet_baseline_ratio" -v m="$MAX_REGRESSION_PCT" \
  'BEGIN { print (c >= b * (1 - m / 100.0)) ? "yes" : "no" }')
if [ "$ok" != "yes" ]; then
  echo "FAIL: fleet throughput ratio regressed more than ${MAX_REGRESSION_PCT}% vs baseline" >&2
  exit 1
fi

if awk -v n="$cores" 'BEGIN { exit !(n >= 4) }'; then
  if ! awk -v s="$fleet_speedup" 'BEGIN { exit !(s >= 1.5) }'; then
    echo "FAIL: fleet 8-shard speedup ${fleet_speedup}x < 1.5x at >=512 GPUs on ${cores} cores" >&2
    exit 1
  fi
  echo "   fleet 8-shard speedup at >=512 GPUs: ${fleet_speedup}x on ${cores} cores (>= 1.5x required)"
else
  echo "   fleet 8-shard speedup at >=512 GPUs: ${fleet_speedup}x on ${cores} core(s)" \
       "(1.5x gate requires >= 4 cores; skipped)"
fi

# --- Capacity-planner gate --------------------------------------------------
# The bench already hard-fails below 10% savings or on any nondeterminism;
# the baseline comparison additionally catches a solver/packing change that
# quietly erodes the certified plan's advantage.
planner_identical=$(sed -n 's/.*"identical_results": *\(true\|false\).*/\1/p' "$PLANNER_RESULT")
planner_savings=$(json_field "$PLANNER_RESULT" savings_pct)
planner_baseline_savings=$(json_field "$BASELINE" savings_pct)

echo
echo "== Capacity-planner gate"
echo "   certified-vs-homogeneous savings: current=${planner_savings}%" \
     "baseline=${planner_baseline_savings}% (floor 10%, max regression ${MAX_REGRESSION_PCT}%)"

if [ "$planner_identical" != "true" ]; then
  echo "FAIL: planner results diverged across runs or sweep worker counts" >&2
  exit 1
fi

ok=$(awk -v c="$planner_savings" -v b="$planner_baseline_savings" -v m="$MAX_REGRESSION_PCT" \
  'BEGIN { print (c >= 10.0 && c >= b * (1 - m / 100.0)) ? "yes" : "no" }')
if [ "$ok" != "yes" ]; then
  echo "FAIL: planner savings ${planner_savings}% below the 10% floor or" \
       "regressed more than ${MAX_REGRESSION_PCT}% vs baseline" >&2
  exit 1
fi

# --- Failover gate ----------------------------------------------------------
# The bench already hard-fails on divergence, lost requests, or a storm
# that never triggered an election; the retention floor here catches a
# failover path that keeps its exactly-once guarantee but burns goodput.
failover_identical=$(sed -n 's/.*"identical_results": *\(true\|false\).*/\1/p' "$FAILOVER_RESULT")
failover_complete=$(sed -n 's/.*"all_requests_complete": *\(true\|false\).*/\1/p' "$FAILOVER_RESULT")
failover_retention=$(json_field "$FAILOVER_RESULT" goodput_retention)
failover_baseline_retention=$(json_field "$BASELINE" goodput_retention)

echo
echo "== Failover gate"
echo "   crash-storm goodput retention: current=${failover_retention}" \
     "baseline=${failover_baseline_retention} (floor ${FAILOVER_RETENTION_FLOOR})"

if [ "$failover_identical" != "true" ]; then
  echo "FAIL: crash-storm run diverged across shard counts" >&2
  exit 1
fi

if [ "$failover_complete" != "true" ]; then
  echo "FAIL: crash-storm run lost or truncated requests" >&2
  exit 1
fi

ok=$(awk -v c="$failover_retention" -v f="$FAILOVER_RETENTION_FLOOR" \
  'BEGIN { print (c >= f) ? "yes" : "no" }')
if [ "$ok" != "yes" ]; then
  echo "FAIL: crash-storm goodput retention ${failover_retention} below the" \
       "${FAILOVER_RETENTION_FLOOR} floor" >&2
  exit 1
fi

echo "PASS"
