#!/usr/bin/env bash
# The benchmark's regression gate: a change against its parent, both built
# and run on the same host.
#
#   bash tools/perf_compare.sh PARENT_TREE CHANGE_TREE [OUT_DIR]
#
# Builds perf/ (Release, into <tree>/build-perf) in both source trees,
# then runs `afs_perf run` of warm_all for 15 s and of cold_all for 30 s
# in 5 pairs each, each pair running both trees with the first tree
# alternating, so host drift lands on both alike. A cold pass takes about
# 5 s, so a 15 s run held only two or three passes and its spread sat at
# the 0.25 bound; 30 s holds five or six. The runs are recorded in
# OUT_DIR/parent.json and OUT_DIR/change.json (default OUT_DIR:
# CHANGE_TREE/build-perf/compare) and compared with `afs_perf compare`.
#
# Exits 1 when compare calls an end-to-end metric of warm_all or cold_all
# a regression, or when a run fails its pins; 2 on a usage or build error.
# `unresolved` (runs spread wider than the bound) and `missing in one set`
# (serve_mixed is not run) are printed but do not fail the gate; compare's
# exit code counts them, so the verdicts are parsed here instead.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE [OUT_DIR]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=${3:-$change/build-perf/compare}
pairs=5
declare -A seconds=([warm_all]=15 [cold_all]=30)

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
for tree in "$parent" "$change"; do
  if [[ ! -f $tree/build-perf/CMakeCache.txt ]]; then
    cmake -S "$tree/perf" -B "$tree/build-perf" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2 || exit 2
  fi
  cmake --build "$tree/build-perf" -j 4 >&2 || exit 2
done

# `afs_perf run --record` appends to an existing file.
mkdir -p "$out"
rm -f "$out/parent.json" "$out/change.json" "$out/compare.txt"
for workload in warm_all cold_all; do
  for ((i = 1; i <= pairs; i++)); do
    sides=(parent change)
    if ((i % 2 == 0)); then sides=(change parent); fi
    for side in "${sides[@]}"; do
      tree=$parent
      if [[ $side == change ]]; then tree=$change; fi
      echo "== $workload pair $i: $side"
      "$tree/build-perf/afs_perf" run --workload="$workload" --seed="$i" \
        --seconds="${seconds[$workload]}" --record="$out/$side.json" \
        | sed '$d'
    done
  done
done

rc=0
"$change/build-perf/afs_perf" compare "$out/parent.json" "$out/change.json" \
  > "$out/compare.txt" || rc=$?
cat "$out/compare.txt"
if ((rc > 1)); then exit 2; fi
# The end-to-end table ends at the first blank line; a verdict is the last
# field of its line.
regressions=$(awk 'NF == 0 { exit }
  ($1 == "warm_all" || $1 == "cold_all") && $NF == "regression"' \
  "$out/compare.txt")
if [[ -n $regressions ]]; then
  echo "perf_compare: the change regresses:" >&2
  echo "$regressions" >&2
  exit 1
fi
echo "perf_compare: no end-to-end regression on warm_all or cold_all"
