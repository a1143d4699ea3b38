#!/usr/bin/env bash
# Size of the non-test Rust code: in each `.rs` file under
# `crates/*/src` and `src/`, the lines above the file's first
# `#[cfg(test)]` (the whole file when it has none). Prints one row per
# crate, the root package's `src/` as `ndp-checkpoint`, and the total.
#
# Usage: scripts/size.sh   (from the repo root or anywhere inside it)

set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of every `.rs` file under the given directories.
count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { done = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0 }'
}

total=0
row() {
    printf '%-16s %6d\n' "$1" "$2"
    total=$((total + $2))
}
for dir in crates/*/src; do
    crate=${dir#crates/}
    row "${crate%/src}" "$(count "$dir")"
done
row ndp-checkpoint "$(count src)"
printf '%-16s %6d\n' total "$total"
