#!/usr/bin/env bash
# Print the work counts of the crash checkers: the stdout of the four
# tier-1 fuzz smokes (with their ctest arguments), the serve campaign
# with the hardware fault axes armed, and a strided crash-in-recovery
# matrix — with each summary line's trailing wall time removed, so the
# output is byte-stable across hosts and job counts.
#
#   scripts/fuzz_summaries.sh [BUILD_DIR] > fuzz_summaries.txt
#
# BUILD_DIR defaults to ./build. results/fuzz_summaries.txt holds the
# committed output; CI diffs a fresh run against it, so a change that
# moves any crash point, run, oracle-check or verdict count shows up as
# a diff. Every run must pass (exit 0).
set -euo pipefail

fuzz="${1:-build}/src/fuzz/fuzz_crash"

run() {
    echo "\$ fuzz_crash $*"
    "$fuzz" "$@" | sed -E 's/, [0-9]+\.[0-9]+s$//'
}

run --seeds 25 --base-seed 1 --mode mixed
run --seeds 9 --base-seed 1 --mode pds --crash-points 6
run --seeds 8 --base-seed 1 --mode serve --crash-points 6
run --seeds 4 --base-seed 1 --mode storm --crash-points 6
run --mode serve --faults --seeds 6 --crash-points 6
run --recovery-matrix --matrix-step 211
