#!/bin/sh
# Non-test lines of Rust per crate and in total: for each `*.rs` under a
# crate's `src/`, the lines before the file's first `#[cfg(test)]` (blank and
# comment lines included: deleting a comment must not read as less code).
#
#   bench/loc.sh                 every crate under crates/
#   bench/loc.sh FILE...         the named files, one line each, and their sum
set -eu
cd "$(dirname "$0")/.."

count() {
    awk 'FNR == 1 { test = 0 } /^[ \t]*#\[cfg\(test\)\]/ { test = 1 } !test { lines++ } END { print lines + 0 }' "$@"
}

total=0
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        lines=$(count "$file")
        printf '%6d  %s\n' "$lines" "$file"
        total=$((total + lines))
    done
else
    for crate in crates/*/; do
        # shellcheck disable=SC2046 # file names under crates/ hold no blanks
        lines=$(count $(find "${crate}src" -name '*.rs' | sort))
        printf '%6d  %s\n' "$lines" "${crate%/}"
        total=$((total + lines))
    done
fi
printf '%6d  total\n' "$total"
