#!/usr/bin/env bash
# The one command: builds the benchmark package (release) and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Honours CARGO_TARGET_DIR; otherwise builds
# into benchmark/target. Cargo's own messages go to stderr, so the last
# line of stdout is the benchmark's result object.
set -euo pipefail
here="$(dirname "$0")"
# glibc raises its mmap threshold whenever a large block is freed, so what a
# repetition's peak memory reads depends on which blocks earlier repetitions
# happened to free (a traced chain read 24 or 32 MiB by that alone). Naming
# the default threshold switches the adjustment off: every large buffer is
# mapped and unmapped on its own, and VmHWM follows the bytes actually live.
export MALLOC_MMAP_THRESHOLD_=131072
export BENCH_RUSTC="${BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
