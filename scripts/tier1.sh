#!/usr/bin/env bash
# Tier-1 gate: everything a commit must pass, with no network access.
#
#   build (release)  ->  tests  ->  clippy (deny warnings)
#
# Each phase prints its wall time. Tests run without `--quiet`, so every
# test binary's `Running ...` line sits above its `finished in Ns` line.
#
# Usage: scripts/tier1.sh   (from the repo root or anywhere inside it)

set -euo pipefail
cd "$(dirname "$0")/.."

phase() {
    local name=$1
    shift
    echo "== tier1: $name =="
    local start=$SECONDS
    "$@"
    echo "== tier1: $name took $((SECONDS - start)) s =="
}

phase "release build" cargo build --release --offline --workspace
phase "tests" cargo test --offline --workspace
phase "clippy (deny warnings)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier1: OK =="
