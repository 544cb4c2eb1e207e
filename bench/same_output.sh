#!/usr/bin/env bash
# Same-output check for a change that must not alter what the simulator
# computes. Runs 13 bench commands, each with --runs 1 --jobs 1, on two
# builds and compares their stdout byte for byte and their exit codes:
#   bash bench/same_output.sh PARENT_BUILD CHANGE_BUILD
# Use Release builds of the bench binaries. Prints one line per command and
# exits non-zero naming the first command that differs. The two builds run
# side by side, one process each; the sweep takes a few minutes.
set -euo pipefail
if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent="$1/bench"
change="$2/bench"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

commands=(
  "bench_fig2_bitcp"
  "bench_fig3_incentives"
  "bench_fig4_mobility"
  "bench_fig8_am_ia"
  "bench_fig9_ma"
  "bench_ablation"
  "bench_faults"
  "bench_faults --poison"
  "bench_faults --blackout"
  "bench_adversary"
  "bench_cells"
  "bench_clustering"
  "bench_resume"
)

for cmd in "${commands[@]}"; do
  read -r -a argv <<< "$cmd"
  # stderr carries wall-clock lines, so only stdout is compared.
  "$parent/${argv[0]}" "${argv[@]:1}" --runs 1 --jobs 1 > "$out/parent.out" 2> "$out/parent.err" &
  parent_pid=$!
  "$change/${argv[0]}" "${argv[@]:1}" --runs 1 --jobs 1 > "$out/change.out" 2> "$out/change.err" &
  change_pid=$!
  parent_rc=0
  wait "$parent_pid" || parent_rc=$?
  change_rc=0
  wait "$change_pid" || change_rc=$?
  if [[ "$parent_rc" -ne "$change_rc" ]]; then
    echo "DIFFERS $cmd: exit $parent_rc vs $change_rc"
    exit 1
  fi
  if ! cmp -s "$out/parent.out" "$out/change.out"; then
    echo "DIFFERS $cmd: stdout"
    diff "$out/parent.out" "$out/change.out" | head -n 20 || true
    exit 1
  fi
  echo "same    $cmd (exit $change_rc, $(wc -l < "$out/change.out") lines)"
done
echo "all ${#commands[@]} commands give the same stdout and exit code"
