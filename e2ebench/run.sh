#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it. From the
# repository root:
#
#   bash e2ebench/run.sh --workload <online-serial|batch-islands|offline-mwis> \
#       --seed <n> --seconds <n> --trace <0|1>
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build); cargo's own
# messages go to standard error, so standard output carries only the
# benchmark's lines, the last of them one JSON object.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
