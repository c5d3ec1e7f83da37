#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json `command`): build the
# ledger and, from the repository's own workspace, the `rgz` CLI users get,
# into one target directory, then run the ledger with the driver's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
build() {
    cargo build --release --quiet --offline --target-dir "$target" --manifest-path "$@" >&2
}
build "$here/Cargo.toml"
build "$here/../Cargo.toml" --package rgz_cli
exec "$target/release/ledger" "$@"
