#!/usr/bin/env bash
# Tier-1 gate: everything a commit must pass, with no network access.
#
#   build (release)  ->  tests  ->  cr-node tests (release, then
#   release on one core)  ->  cr-compress tests (release)  ->  clippy
#   (deny warnings)
#
# The debug `cargo test` phase is the only place `debug_assert!`s run;
# the model sweep in `tests/model_properties.rs` guards them there.
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
# `cr-node` holds the workspace's unsafe code (the CRC-64 kernel); its
# tests run optimized too, where debug assertions are compiled out.
phase "cr-node tests (release)" cargo test --release --offline -p cr-node
# The NDP drain's compress-ahead window and the restore's frame decode
# fan out over one worker per available core. Pinned to one core, both
# take the executor's inline one-worker path, which must give the same
# bytes and steps.
phase "cr-node tests (release, one core)" \
    taskset -c 0 cargo test --release --offline -p cr-node
# The gz decoder's fast loop does unchecked bit arithmetic; its tests run
# where overflow wraps as well as in the debug phase, where it panics.
phase "cr-compress tests (release)" \
    cargo test --release --offline -p cr-compress
phase "clippy (deny warnings)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier1: OK =="
