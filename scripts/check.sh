#!/usr/bin/env sh
# Tier-1 gate: release build, full test suite, invariant lint, clippy clean.
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

cargo build --release
# Every workspace crate's tests, not only the root package's, at the
# default thread count and serially: a test that depends on how many
# tests run at once fails one of the two.
cargo test -q --workspace
cargo test -q --workspace -- --test-threads=1
# The recording-off build: nga-obs, nga-kernels and nga-nn (doctests
# included) must pass with every trace entry point compiled to a no-op.
cargo test -q -p nga-obs -p nga-kernels -p nga-nn \
    --features nga-obs/obs-off,nga-kernels/obs-off,nga-nn/obs-off
# API docs build warning-free, so an intra-doc link to a removed or
# renamed item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --workspace --no-deps
# The benchmark harness's smoke tests run every workload at a tiny size
# and check each item bit for bit, so a library change that breaks them
# fails here, not only when the benchmark runs.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
# Workspace invariants (bit-exactness, panic-freedom, LUT/kernel
# consistency): fails on any finding and refreshes LINT_REPORT.json.
cargo run -q --release -p nga-lint -- --json
# Differential oracle quick sweep (~50M cases): fails on any mismatch
# between the datapaths and the exact-arithmetic reference, and
# refreshes ORACLE_REPORT.quick.json. The exhaustive sweep (run
# `nga-oracle --json` without --quick, ~2^33 cases) maintains
# ORACLE_REPORT.json.
cargo run -q --release -p nga-oracle -- --quick --json --quiet
# Fault-injection quick sweep: exercises the NaR/saturation degradation
# paths and the checksum-verified LUT fallback (exit nonzero if any
# corrupted table fails to recover). Run twice into a scratch copy to
# prove the report is byte-deterministic, then refresh the committed
# FAULTS_REPORT.quick.json. The full sweep (`nga-faults --json`)
# maintains FAULTS_REPORT.json.
cargo run -q --release -p nga-faults -- --quick --json FAULTS_REPORT.quick.json --quiet >/dev/null
cargo run -q --release -p nga-faults -- --quick --json FAULTS_REPORT.quick.json.rerun --quiet >/dev/null
cmp FAULTS_REPORT.quick.json FAULTS_REPORT.quick.json.rerun || {
    echo "nga-faults: quick report is not byte-deterministic" >&2
    exit 1
}
rm -f FAULTS_REPORT.quick.json.rerun
# Observability trace: the quick workload's op-count/event report must be
# byte-identical across runs (no timestamps, no thread-dependent counts).
# Refreshes the committed TRACE_REPORT.quick.json. The full workload
# (`nga-bench --bin trace` without --quick) maintains TRACE_REPORT.json.
cargo run -q --release -p nga-bench --bin trace -- --quick >/dev/null
cp TRACE_REPORT.quick.json TRACE_REPORT.quick.json.rerun
cargo run -q --release -p nga-bench --bin trace -- --quick >/dev/null
cmp TRACE_REPORT.quick.json TRACE_REPORT.quick.json.rerun || {
    echo "nga-bench trace: quick report is not byte-deterministic" >&2
    exit 1
}
rm -f TRACE_REPORT.quick.json.rerun
cargo clippy --workspace -- -D warnings
