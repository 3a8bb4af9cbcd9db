#!/usr/bin/env bash
# Checks that the perfbench workloads still produce their checked-in
# digests. The digest hashes every simulated request outcome, so a change
# that claims byte-identical simulated behaviour must leave all three alone.
# Wall-clock speed does not enter the digest.
#
# Usage (from the repository root): tools/check_perfbench_digests.sh
# Builds the runner via perfbench/run.py (Release, .bench_build/).
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A expected=(
  [cell-sweep]=b03044c4985a71ff
  [cell-saturated]=bc6bdeb673973910
  [overload-faults]=4d73352f7ad67e05
)

status=0
for workload in cell-sweep cell-saturated overload-faults; do
  out=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0)
  got=$(printf '%s\n' "$out" | sed -n 's/^digest: //p')
  if [[ "$got" == "${expected[$workload]}" ]]; then
    echo "ok   $workload digest $got"
  else
    echo "FAIL $workload digest '${got}' (expected ${expected[$workload]})"
    status=1
  fi
done
exit "$status"
