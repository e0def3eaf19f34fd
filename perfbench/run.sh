#!/usr/bin/env bash
# Builds the qda-server daemon and the benchmark binary from source and
# runs one workload; the binary pins QDA_WORKERS per workload. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload <hier-recip|dse-esop-tbs|serve-mixed> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the run's JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server ]]; then
    echo "perfbench: run from the repository root (no workspace here)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qda-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# Identify the measured code: the commit in a git checkout, otherwise a
# digest of the sources that were built.
if [[ -d .git ]] && commit=$(git rev-parse HEAD 2>/dev/null); then
    export PERFBENCH_COMMIT=$commit
else
    digest=$(find Cargo.toml Cargo.lock crates vendor perfbench/Cargo.toml perfbench/src \
        -type f \( -name '*.rs' -o -name 'Cargo.*' \) -print0 | LC_ALL=C sort -z |
        xargs -0 cat | sha256sum | cut -c1-16)
    export PERFBENCH_COMMIT="source-sha256:$digest"
fi
PERFBENCH_RUSTC=$(rustc -V)
export PERFBENCH_RUSTC

exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/qda-server" "$@"
