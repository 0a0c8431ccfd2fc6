#!/usr/bin/env bash
# Builds the benchmark from the repository's sources, then runs it with the
# given arguments (see README.md):
#
#   bash perfbench/run.sh --workload decide_mix --seed 1 --seconds 12 --trace 0
#
# Builds into $CARGO_TARGET_DIR (default: perfbench/target). The in-process
# server logs every request on stderr, so the benchmark's stderr goes to
# perfbench.log in that directory and is shown only when the run fails;
# traced runs also leave their Chrome trace JSON there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"

CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2

log="$target/perfbench.log"
status=0
"$target/release/recopack-perfbench" --out-dir "$target/perfbench-trace" "$@" 2>"$log" \
    || status=$?
if [ "$status" -ne 0 ]; then
    grep -v -e '^{"t_ms"' -e '^#' -e '^recopack_' "$log" | tail -n 40 >&2 || true
fi
exit "$status"
