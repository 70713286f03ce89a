//! Kernel-tier characterization: ops/s for the scalar, table (LUT) and
//! table+parallel matmul kernels over every 8-bit format, plus the f32
//! serial vs parallel tensor layer.
//!
//! The status path is measured too: `ArithCtx::matmul8` (codes plus
//! event counters) per format on each tier, and `ArithCtx::mul`/`add`
//! in ns per op on each tier against the status-free `LutOp` lookup.
//!
//! Prints a markdown table by default; `--json` additionally writes
//! `BENCH_kernels.json` (machine-readable, checked into the repo so the
//! README's Performance section has provenance).
//!
//! `--tier=scalar|table|parallel` selects the context tier reported in
//! the header (the A/B columns always measure all tiers); without it the
//! context falls back to the documented environment default.
//!
//! Environment: `NGA_BENCH_MS` sets the per-case measurement window
//! (default 300 ms), `NGA_THREADS` caps the parallel tier's workers.

use std::time::Instant;

use nga_bench::{banner, print_table};
use nga_kernels::{
    matmul8, matmul8_parallel, matmul8_scalar, matmul_f32, matmul_f32_parallel, num_threads,
    ArithCtx, Format8, KernelTier, LutOp,
};

/// Times `f` repeatedly inside the measurement window; returns the best
/// observed seconds per call.
fn time_call<F: FnMut()>(mut f: F) -> f64 {
    let window_ms = std::env::var("NGA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300)
        .max(10);
    let window = std::time::Duration::from_millis(window_ms);
    // Calibrate a batch size filling ~1/10 of the window.
    let mut n: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        let el = t.elapsed();
        if el * 10 >= window || n >= 1 << 24 {
            break;
        }
        n *= 4;
    }
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut batches = 0u32;
    while start.elapsed() < window || batches < 3 {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / n as f64);
        batches += 1;
        if batches >= 1000 {
            break;
        }
    }
    best
}

struct Row {
    label: String,
    macs: u64,
    scalar: f64,
    table: f64,
    parallel: f64,
}

impl Row {
    fn ops(&self, secs: f64) -> f64 {
        self.macs as f64 / secs
    }
}

fn bench_format(fmt: Format8, m: usize, k: usize, n: usize) -> Row {
    let op = LutOp::new(fmt);
    let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
    let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
    let mut out = vec![0u8; m * n];
    let scalar = time_call(|| matmul8_scalar(fmt, &a, &b, &mut out, m, k, n));
    let table = time_call(|| matmul8(&op, &a, &b, &mut out, m, k, n));
    let parallel = time_call(|| matmul8_parallel(&op, &a, &b, &mut out, m, k, n));
    std::hint::black_box(&out);
    Row {
        label: format!("matmul8[{}] {m}x{k}x{n}", fmt.id()),
        macs: (m * k * n) as u64,
        scalar,
        table,
        parallel,
    }
}

/// `ArithCtx::matmul8` on each tier: the status path, which also counts
/// every op's events and records them to the context's trace scope.
fn bench_ctx_format(fmt: Format8, m: usize, k: usize, n: usize) -> Row {
    let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
    let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
    let mut out = vec![0u8; m * n];
    let mut time_tier = |tier: KernelTier| {
        let mut ctx = ArithCtx::labeled("bench:ctx").with_tier(tier);
        time_call(|| {
            std::hint::black_box(ctx.matmul8(fmt, &a, &b, &mut out, m, k, n));
        })
    };
    Row {
        label: format!("ctx.matmul8[{}] {m}x{k}x{n}", fmt.id()),
        macs: (m * k * n) as u64,
        scalar: time_tier(KernelTier::Scalar),
        table: time_tier(KernelTier::Table),
        parallel: time_tier(KernelTier::Parallel),
    }
}

/// Nanoseconds per `ArithCtx::mul`/`add` on each tier, and per status-free
/// `LutOp` lookup (the ceiling).
struct ScalarRow {
    fmt: Format8,
    /// `[scalar, table, parallel, lut]`.
    ns: [f64; 4],
}

fn bench_ctx_scalar(fmt: Format8) -> ScalarRow {
    const PAIRS: usize = 4096;
    let pairs: Vec<(u8, u8)> = (0..PAIRS)
        .map(|i| ((i * 37 + 11) as u8, (i * 91 + 3) as u8))
        .collect();
    let ops = (2 * PAIRS) as f64;
    let per_op = |secs: f64| secs * 1e9 / ops;
    let time_tier = |tier: KernelTier| {
        let mut ctx = ArithCtx::labeled("bench:ctx").with_tier(tier);
        per_op(time_call(|| {
            for &(a, b) in &pairs {
                std::hint::black_box(ctx.mul(fmt, a, b));
                std::hint::black_box(ctx.add(fmt, a, b));
            }
        }))
    };
    let op = LutOp::new(fmt);
    let lut = per_op(time_call(|| {
        for &(a, b) in &pairs {
            std::hint::black_box(op.mul(a, b));
            std::hint::black_box(op.add(a, b));
        }
    }));
    ScalarRow {
        fmt,
        ns: [
            time_tier(KernelTier::Scalar),
            time_tier(KernelTier::Table),
            time_tier(KernelTier::Parallel),
            lut,
        ],
    }
}

fn bench_f32(m: usize, k: usize, n: usize) -> Row {
    let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.001 - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| 0.5 - i as f32 * 0.001).collect();
    let mut out = vec![0.0f32; m * n];
    let serial = time_call(|| matmul_f32(&a, &b, &mut out, m, k, n));
    let parallel = time_call(|| matmul_f32_parallel(&a, &b, &mut out, m, k, n));
    std::hint::black_box(&out);
    Row {
        label: format!("matmul_f32 {m}x{k}x{n}"),
        macs: (m * k * n) as u64,
        scalar: serial,
        table: serial,
        parallel,
    }
}

fn fmt_ops(ops: f64) -> String {
    if ops >= 1e9 {
        format!("{:.2} G", ops / 1e9)
    } else if ops >= 1e6 {
        format!("{:.2} M", ops / 1e6)
    } else {
        format!("{:.1} k", ops / 1e3)
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // Build the context first, then report *its* effective tier — not a
    // separate environment read that could disagree with what runs.
    let mut ctx = ArithCtx::labeled("bench:kernels");
    for arg in std::env::args() {
        if let Some(t) = arg.strip_prefix("--tier=") {
            match KernelTier::parse(t) {
                Some(tier) => ctx = ctx.with_tier(tier),
                None => {
                    eprintln!("unknown tier {t:?} (expected scalar|table|parallel)");
                    std::process::exit(2);
                }
            }
        }
    }
    banner("Kernel tiers — scalar vs table vs table+parallel");
    println!(
        "worker threads: {}, context tier: {}\n",
        num_threads(),
        ctx.tier()
    );

    let (m, k, n) = (48, 64, 48);
    let mut rows: Vec<Row> = Format8::ALL
        .into_iter()
        .map(|f| bench_format(f, m, k, n))
        .collect();
    rows.push(bench_f32(96, 128, 96));
    rows.extend(
        Format8::ALL
            .into_iter()
            .map(|f| bench_ctx_format(f, m, k, n)),
    );
    let scalar_rows: Vec<ScalarRow> = Format8::ALL.into_iter().map(bench_ctx_scalar).collect();

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}ops/s", fmt_ops(r.ops(r.scalar))),
                format!("{}ops/s", fmt_ops(r.ops(r.table))),
                format!("{}ops/s", fmt_ops(r.ops(r.parallel))),
                format!("{:.1}x", r.scalar / r.table),
                format!("{:.1}x", r.scalar / r.parallel),
            ]
        })
        .collect();
    print_table(
        &[
            "kernel",
            "scalar",
            "table",
            "parallel",
            "table speedup",
            "parallel speedup",
        ],
        &table_rows,
    );

    println!();
    print_table(
        &[
            "ctx.mul + ctx.add",
            "scalar ns/op",
            "table ns/op",
            "parallel ns/op",
            "LutOp ns/op",
        ],
        &scalar_rows
            .iter()
            .map(|r| {
                let mut cells = vec![r.fmt.id().to_string()];
                cells.extend(r.ns.iter().map(|ns| format!("{ns:.1}")));
                cells
            })
            .collect::<Vec<_>>(),
    );

    if json {
        let mut entries: Vec<String> = Vec::new();
        for r in &rows {
            entries.push(format!(
                concat!(
                    "    {{\"kernel\": \"{}\", \"macs_per_call\": {}, ",
                    "\"scalar_ops_per_s\": {:.0}, \"table_ops_per_s\": {:.0}, ",
                    "\"parallel_ops_per_s\": {:.0}, ",
                    "\"table_speedup\": {:.2}, \"parallel_speedup\": {:.2}}}"
                ),
                r.label,
                r.macs,
                r.ops(r.scalar),
                r.ops(r.table),
                r.ops(r.parallel),
                r.scalar / r.table,
                r.scalar / r.parallel,
            ));
        }
        let scalar_entries: Vec<String> = scalar_rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"kernel\": \"ctx.mul+add[{}]\", ",
                        "\"scalar_ns_per_op\": {:.2}, \"table_ns_per_op\": {:.2}, ",
                        "\"parallel_ns_per_op\": {:.2}, \"lut_ns_per_op\": {:.2}}}"
                    ),
                    r.fmt.id(),
                    r.ns[0],
                    r.ns[1],
                    r.ns[2],
                    r.ns[3],
                )
            })
            .collect();
        let doc = format!(
            concat!(
                "{{\n  \"bench\": \"kernels\",\n  \"threads\": {},\n",
                "  \"cases\": [\n{}\n  ],\n  \"ctx_scalar\": [\n{}\n  ]\n}}\n"
            ),
            num_threads(),
            entries.join(",\n"),
            scalar_entries.join(",\n")
        );
        std::fs::write("BENCH_kernels.json", &doc).expect("write BENCH_kernels.json");
        println!("\nwrote BENCH_kernels.json");
    }
}
