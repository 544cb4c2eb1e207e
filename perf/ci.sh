#!/usr/bin/env bash
# CI entry point for the benchmark: Release build of perf/ (plus its -pg
# twin) and the determinism self-test. Takes no arguments; exits non-zero if
# a build fails, a seed does not reproduce its digest, the -pg build computes
# something else, or checked-roam reports an invariant violation.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 perf/run.py --smoke
