#!/usr/bin/env bash
# Same-output check for a change that must not alter what the simulator
# computes. Runs 13 bench commands, each with --runs 1 --jobs 1, and the six
# example simulator runs (quickstart, mobile_video, commuter_handoff, and the
# wireless emulator on its built-in demo and on each examples/scenarios file)
# on two builds and compares their stdout byte for byte and their exit codes:
#   bash bench/same_output.sh PARENT_BUILD CHANGE_BUILD
# The seven commands whose scenarios feed the shared trace session also run
# with --trace and --check-invariants; their traces (up to a few hundred MB
# each) are hashed through a pipe, never written to disk, and compared too.
# Tracing leaves stdout unchanged, so the stdout comparison means the same
# for every command. Use Release builds. Prints one
# line per command and exits non-zero naming the first command that
# differs. The two builds run side by side, one process each; the sweep
# takes a few minutes.
set -euo pipefail
if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent="$1"
change="$2"
scenarios="$(cd "$(dirname "$0")/../examples/scenarios" && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

commands=(
  "bench/bench_fig2_bitcp"
  "bench/bench_fig3_incentives"
  "bench/bench_fig4_mobility"
  "bench/bench_fig8_am_ia"
  "bench/bench_fig9_ma"
  "bench/bench_ablation"
  "bench/bench_faults"
  "bench/bench_faults --poison"
  "bench/bench_faults --blackout"
  "bench/bench_adversary"
  "bench/bench_cells"
  "bench/bench_clustering"
  "bench/bench_resume"
  "examples/quickstart"
  "examples/mobile_video"
  "examples/commuter_handoff"
  "examples/wireless_emulator"
  "examples/wireless_emulator $scenarios/handoff.scn"
  "examples/wireless_emulator $scenarios/tunnel.scn"
)
traced=" bench_fig2_bitcp bench_fig3_incentives bench_fig4_mobility bench_fig8_am_ia \
bench_fig9_ma bench_ablation bench_resume "

# run SIDE BINARY [ARGS...]: leaves SIDE.out, SIDE.err, SIDE.rc and SIDE.trace
# ("<sha256> <lines>" of the trace; empty input for untraced commands).
run() {
  local side="$1" binary="$2"
  shift 2
  local flags=()
  if [[ "$binary" == */bench/* ]]; then
    flags=(--runs 1 --jobs 1)
  fi
  if [[ "$traced" == *" ${binary##*/} "* ]]; then
    flags+=(--trace /dev/fd/3 --check-invariants)
  fi
  {
    local rc=0
    "$binary" "$@" "${flags[@]}" 3>&1 > "$out/$side.out" 2> "$out/$side.err" || rc=$?
    echo "$rc" > "$out/$side.rc"
  } | python3 -c '
import hashlib, sys
digest, lines = hashlib.sha256(), 0
for chunk in iter(lambda: sys.stdin.buffer.read(1 << 20), b""):
    digest.update(chunk)
    lines += chunk.count(b"\n")
print(digest.hexdigest(), lines)' > "$out/$side.trace"
}

for cmd in "${commands[@]}"; do
  read -r -a argv <<< "$cmd"
  # stderr carries wall-clock lines, so only stdout is compared.
  run parent "$parent/${argv[0]}" "${argv[@]:1}" &
  parent_pid=$!
  run change "$change/${argv[0]}" "${argv[@]:1}" &
  change_pid=$!
  wait "$parent_pid"
  wait "$change_pid"
  parent_rc="$(< "$out/parent.rc")"
  change_rc="$(< "$out/change.rc")"
  if [[ "$parent_rc" -ne "$change_rc" ]]; then
    echo "DIFFERS $cmd: exit $parent_rc vs $change_rc"
    exit 1
  fi
  if ! cmp -s "$out/parent.out" "$out/change.out"; then
    echo "DIFFERS $cmd: stdout"
    diff "$out/parent.out" "$out/change.out" | head -n 20 || true
    exit 1
  fi
  read -r hash lines < "$out/change.trace"
  if [[ "$traced" == *" ${argv[0]##*/} "* ]]; then
    if ! cmp -s "$out/parent.trace" "$out/change.trace"; then
      echo "DIFFERS $cmd: trace ($(< "$out/parent.trace") vs $hash $lines)"
      exit 1
    fi
    if [[ "$lines" -eq 0 ]]; then
      echo "EMPTY   $cmd: neither build wrote a trace line"
      exit 1
    fi
    trace_note=", trace $lines lines sha256 ${hash:0:16}"
  else
    trace_note=""
  fi
  echo "same    $cmd (exit $change_rc, $(wc -l < "$out/change.out") lines$trace_note)"
done
echo "all ${#commands[@]} commands give the same stdout and exit code; 7 give the same trace"
