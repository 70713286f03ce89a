#!/usr/bin/env sh
# Tier-1 gate: release build, full test suite (with the invariant lint),
# clippy clean (the workspace and a fixture crate whose seeded violations
# it must catch).
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

cargo build --release
# Every workspace crate's tests, not only the root package's, at the
# default thread count and serially: a test that depends on how many
# tests run at once fails one of the two. Both runs include nga-lint's
# selftest, the workspace invariant that rustc and clippy cannot express
# (no host floats in the bit-exact cores, reasoned waiver regions): it
# fails on any finding, and when its policy no longer covers the tree.
cargo test -q --workspace
cargo test -q --workspace -- --test-threads=1
# The equivalence and status tests, and nga-nn's whole-ResNet20
# differential test, with three worker threads, so their banded shapes
# split into bands even on a one-CPU host, where the default thread
# count makes no bands at all: f32 matmul row bands that start part-way
# through the f32 worker's 4-row register tile, conv2d_f32's bands of
# 8-pixel blocks (each packing its own panels), and the status path's
# bands over the fused value+event tables.
NGA_THREADS=3 cargo test -q -p nga-kernels -p nga-nn --test equivalence --test status \
    --test conv_differential
# And on one worker thread, so the parallel tier runs its shapes above
# the banding threshold as a single serial band.
NGA_THREADS=1 cargo test -q -p nga-kernels -p nga-nn --test equivalence --test status \
    --test conv_differential
# API docs build warning-free, so an intra-doc link to a removed or
# renamed item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --workspace --no-deps
# The benchmark harness's smoke tests run every workload at a tiny size
# and check each item bit for bit, so a library change that breaks them
# fails here, not only when the benchmark runs.
cargo test --offline -q --manifest-path perfbench/Cargo.toml
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
# Training and evaluation must not depend on the worker thread count:
# fig5's quick run (float training, approximate retraining and accuracy
# on two DNNs, ~7 s) on one and on three worker threads must print the
# same output, apart from the banner line that names the thread count.
for t in 1 3; do
    NGA_THREADS=$t cargo run -q --release -p nga-bench --bin fig5 -- --quick \
        > "target/fig5.quick.threads$t.txt"
    sed -i '/worker thread(s)/d' "target/fig5.quick.threads$t.txt"
done
cmp target/fig5.quick.threads1.txt target/fig5.quick.threads3.txt || {
    echo "fig5 --quick: output depends on the worker thread count" >&2
    exit 1
}
# And it must not move at all: a change to training that shifts an
# accuracy on every thread count alike passes the cmp above, so the
# output is also pinned by the committed results/fig5.quick.txt (checked
# with the reports below).
cp target/fig5.quick.threads1.txt results/fig5.quick.txt
# The benchmark harness runs every case end to end at a 10 ms window
# (~2 s), without --json, so BENCH_kernels.json is left as committed.
NGA_BENCH_MS=10 cargo run -q --release -p nga-bench --bin kernels >/dev/null
# The committed reports must match the code. The steps above regenerated
# them in place; a change that alters a report without committing the new
# one fails here instead of leaving a stale report behind.
git diff --exit-code -- ORACLE_REPORT.quick.json FAULTS_REPORT.quick.json \
    TRACE_REPORT.quick.json results/fig5.quick.txt || {
    echo "check.sh: a report differs from its committed copy;" \
        "regenerate it, review the diff and stage it" >&2
    exit 1
}
# Clippy over every target (tests and examples too), warnings
# as errors. It also enforces the invariants handed to the compiler: no
# unsafe ([workspace.lints.rust] in Cargo.toml), a reason on every
# #[allow], panic-free arithmetic crates (the deny list in their crate
# roots) and no ambient env/clock reads (clippy.toml).
cargo clippy --workspace --all-targets -- -D warnings
# Those compiler-enforced rules must still fire: clippy must report each
# seeded violation in nga-lint's clippy fixture crate at its line.
scripts/clippy-fixture.sh
