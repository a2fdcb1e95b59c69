#!/usr/bin/env bash
# Build the benchmark and run it. Everything after the build is the Rust
# binary (`src/main.rs`); see README.md or `run.sh --help`.
#
#   run.sh                      every workload untraced, then traced; all metrics
#   run.sh --workload W --seed N --seconds S --trace 0|1
#                               one run for the driver; last stdout line is JSON
#   run.sh --aa | --list | --trace-only | --lint
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
# The driver points CARGO_TARGET_DIR at a directory of its own; without it
# cargo builds into benchmark/target (git-ignored).
target="${CARGO_TARGET_DIR:-$here/target}"

if [[ "${1:-}" == "--lint" ]]; then
    # benchmark/ is outside the root workspace, so scripts/ci.sh does not see it.
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest" -q
    exit 0
fi

# Build output goes to stderr: in driver mode the last line of stdout must be
# the result, and a failed build must print no result at all (set -e).
cargo build --offline --release --manifest-path "$manifest" >&2

export BENCHMARK_OUT="$here/out"
exec "$target/release/fompi-benchmark" "$@"
