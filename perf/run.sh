#!/usr/bin/env bash
# The repository benchmark (perf/README.md). Run from the repository root.
#
#   bash perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       builds build-perf/ (Release) if needed, then one run of one
#       workload; the last stdout line is the JSON result.
#   bash perf/run.sh [--seed=N] [--set=NAME]... [--seconds=S]
#       result sets: per named set, 10 untraced runs and one traced run of
#       each workload, recorded in build-perf/results/NAME/results.json
#       with one spans.json per workload. Set k (0-based, in flag order)
#       takes seeds N+10k..N+10k+9. The sets' runs alternate, each set
#       going first in turn, so host drift lands in every set alike.
#       Compare two sets with
#       build-perf/afs_perf compare A B.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f CMakeLists.txt || ! -d src || ! -d tools ]]; then
  echo "perf/run.sh: the repository sources are not next to perf/" >&2
  exit 2
fi

workload="" seed=1 seconds=35 trace=0 sets=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --seconds=*) seconds="${1#*=}"; shift ;;
    --trace=*) trace="${1#*=}"; shift ;;
    --set=*) sets+=("${1#*=}"); shift ;;
    *) echo "perf/run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

build=build-perf
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f $build/CMakeCache.txt ]]; then
  cmake -S perf -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 >&2

if [[ -n $workload ]]; then
  exec "$build/afs_perf" run --workload="$workload" --seed="$seed" \
    --seconds="$seconds" --trace="$trace"
fi

runs=10
[[ ${#sets[@]} -gt 0 ]] || sets=(default)
for s in "${sets[@]}"; do
  rm -rf "$build/results/$s"
  mkdir -p "$build/results/$s"
done
for w in cold_all warm_all serve_mixed; do
  for ((i = 0; i < runs; i++)); do
    for ((j = 0; j < ${#sets[@]}; j++)); do
      k=$(((i + j) % ${#sets[@]}))
      "$build/afs_perf" run --workload="$w" --seed=$((seed + k * runs + i)) \
        --seconds="$seconds" --trace=0 \
        --record="$build/results/${sets[k]}/results.json" | sed '$d'
    done
  done
  for k in "${!sets[@]}"; do
    out="$build/results/${sets[k]}"
    mkdir -p "$out/$w"
    "$build/afs_perf" run --workload="$w" --seed=$((seed + k * runs)) \
      --seconds="$seconds" --trace=1 --record="$out/results.json" \
      --spans="$out/$w/spans.json" | sed '$d'
  done
done
for s in "${sets[@]}"; do echo "results: $build/results/$s/results.json" >&2; done
