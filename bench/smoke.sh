#!/usr/bin/env bash
# Bench smoke checks (CI's bench-smoke job; TESTING.md lists each contract).
# Run from the repository root on a Release build of the bench binaries:
#   bash bench/smoke.sh [BUILD_DIR]
# Leaves j1.out, j8.out, trace.jsonl and ci_scale.json in the current
# directory and exits non-zero at the first failed check.
set -euo pipefail
bench="${1:-build}/bench"

# Stdout is byte-identical for any --jobs.
"$bench/bench_fig4_mobility" --runs 4 --jobs 1 > j1.out
"$bench/bench_fig4_mobility" --runs 4 --jobs 8 > j8.out
diff -u j1.out j8.out

# A traced run writes JSONL events and passes the invariant checker.
"$bench/bench_fig2_bitcp" --runs 2 --seed 7 --trace trace.jsonl --check-invariants
test -s trace.jsonl

# Contract tables: each exits non-zero when a contract breaks.
"$bench/bench_faults" --blackout --runs 1
"$bench/bench_cells" --cells 3 --runs 1
"$bench/bench_clustering" --runs 1
"$bench/bench_resume" --runs 1 --check-invariants

# Scale sweep against the committed baseline: events/sec within 60% (shared
# runners are noisy) and exact event counts. The duration must match the
# baseline's; shorter runs under-amortize setup and read as regressions. The
# 50k point costs about 0.2 s; it is where the work that grows with the
# population (tracker registration and selection, the flyweights' shared
# wheels) weighs most.
"$bench/bench_scale" --sizes 100,1000,10000,50000 --duration 60 --out ci_scale.json \
  --compare BENCH_scale.json --tolerance 0.6
