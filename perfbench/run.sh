#!/usr/bin/env bash
# Builds the benchmark from source (release, offline) and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload fig4_batch --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/perfbench" "$@"
