//! Sweep orchestration: builds the deterministic task list, shards the
//! rows across `std::thread::scope` workers, and assembles the report.
//!
//! Every task derives its own SplitMix64 stream from (seed, task index),
//! so the report is a pure function of the options regardless of thread
//! count or interleaving. This module is a declared host-float boundary
//! (nga-lint's `ALLOWLIST`): degradation metrics are computed *about* the
//! formats.

use crate::codec::FormatKind;
use crate::inject::Injector;
use crate::model::{self, evaluate, quantize_weights, ModelStats, Workload};
use crate::report::{LutRow, ModelRow, OperandRow, Report};
use crate::rng::SplitMix64;

use nga_kernels::{matmul8_parallel, matmul8_scalar, BinaryTable, Format8, LutOp};
use nga_nn::robust::{matmul8_verified, LutIntegrity};

/// Sweep options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Quick mode: one workload, one rate, fewer operand cases.
    pub quick: bool,
    /// Injector seed (fixed default so committed reports reproduce).
    pub seed: u64,
    /// Worker threads for the row shards.
    pub threads: usize,
    /// Print phase progress to stdout.
    pub progress: bool,
}

/// Default injector seed used for the committed reports.
pub const DEFAULT_SEED: u64 = 0x4E47_4146; // "NGAF"

const FULL_RATES: [u32; 3] = [100, 1_000, 10_000];
const QUICK_RATES: [u32; 1] = [10_000];

#[derive(Debug, Clone, Copy)]
enum Target {
    Weights,
    Activations,
}

impl Target {
    fn id(self) -> &'static str {
        match self {
            Target::Weights => "weights",
            Target::Activations => "activations",
        }
    }
}

struct Baseline {
    net: nga_nn::layers::Network,
    stats: ModelStats,
    logits: Vec<Vec<f32>>,
}

enum TaskSpec {
    Model {
        wi: usize,
        fmt: FormatKind,
        target: Target,
        rate_ppm: u32,
    },
    Operand {
        fmt: FormatKind,
        rate_ppm: u32,
        cases: u64,
    },
    Lut {
        fmt: Format8,
        rate_ppm: u32,
    },
}

enum RowResult {
    Model(ModelRow),
    Operand(OperandRow),
    Lut(LutRow),
}

/// Runs the sweep described by `opts`.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let rates: &[u32] = if opts.quick { &QUICK_RATES } else { &FULL_RATES };
    let operand_cases: u64 = if opts.quick { 2_000 } else { 20_000 };

    if opts.progress {
        println!("training workloads ({} mode)...", mode_name(opts.quick));
    }
    let workloads = model::workloads(opts.quick);

    if opts.progress {
        println!("computing fault-free baselines...");
    }
    let baselines: Vec<Vec<Baseline>> = workloads
        .iter()
        .map(|w| {
            FormatKind::ALL
                .iter()
                .map(|&fmt| {
                    let net = quantize_weights(&w.net, fmt, None);
                    let (stats, logits) = evaluate(&net, fmt, &w.samples, None, None);
                    Baseline { net, stats, logits }
                })
                .collect()
        })
        .collect();

    let mut tasks = Vec::new();
    for (wi, _) in workloads.iter().enumerate() {
        for fmt in FormatKind::ALL {
            for target in [Target::Weights, Target::Activations] {
                for &rate_ppm in rates {
                    tasks.push(TaskSpec::Model {
                        wi,
                        fmt,
                        target,
                        rate_ppm,
                    });
                }
            }
        }
    }
    for fmt in FormatKind::ALL {
        for &rate_ppm in rates {
            tasks.push(TaskSpec::Operand {
                fmt,
                rate_ppm,
                cases: operand_cases,
            });
        }
    }
    for fmt in Format8::ALL {
        for &rate_ppm in rates {
            tasks.push(TaskSpec::Lut { fmt, rate_ppm });
        }
    }

    if opts.progress {
        println!("running {} fault tasks...", tasks.len());
    }
    let mut results: Vec<Option<RowResult>> = Vec::new();
    results.resize_with(tasks.len(), || None);
    let threads = opts.threads.clamp(1, tasks.len().max(1));
    let chunk = tasks.len().div_ceil(threads);
    if threads <= 1 {
        for (i, (task, slot)) in tasks.iter().zip(results.iter_mut()).enumerate() {
            *slot = Some(run_task(task, i as u64, opts.seed, &workloads, &baselines));
        }
    } else {
        std::thread::scope(|s| {
            for (ci, (tchunk, rchunk)) in
                tasks.chunks(chunk).zip(results.chunks_mut(chunk)).enumerate()
            {
                let workloads = &workloads;
                let baselines = &baselines;
                let seed = opts.seed;
                s.spawn(move || {
                    for (j, (task, slot)) in tchunk.iter().zip(rchunk.iter_mut()).enumerate() {
                        let index = (ci * chunk + j) as u64;
                        *slot = Some(run_task(task, index, seed, workloads, baselines));
                    }
                });
            }
        });
    }

    let mut report = Report {
        mode: mode_name(opts.quick).to_string(),
        seed: opts.seed,
        models: Vec::new(),
        operands: Vec::new(),
        luts: Vec::new(),
    };
    for row in results.into_iter().flatten() {
        match row {
            RowResult::Model(r) => report.models.push(r),
            RowResult::Operand(r) => report.operands.push(r),
            RowResult::Lut(r) => report.luts.push(r),
        }
    }
    report
}

fn mode_name(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn run_task(
    task: &TaskSpec,
    index: u64,
    seed: u64,
    workloads: &[Workload],
    baselines: &[Vec<Baseline>],
) -> RowResult {
    match *task {
        TaskSpec::Model {
            wi,
            fmt,
            target,
            rate_ppm,
        } => {
            let w = &workloads[wi];
            let fi = FormatKind::ALL.iter().position(|&f| f == fmt).unwrap_or(0);
            let base = &baselines[wi][fi];
            let mut inj = Injector::new(seed, index);
            let stats = match target {
                Target::Weights => {
                    let noisy = quantize_weights(&w.net, fmt, Some((&mut inj, rate_ppm)));
                    evaluate(&noisy, fmt, &w.samples, Some(&base.logits), None).0
                }
                Target::Activations => evaluate(
                    &base.net,
                    fmt,
                    &w.samples,
                    Some(&base.logits),
                    Some((&mut inj, rate_ppm)),
                )
                .0,
            };
            RowResult::Model(ModelRow {
                workload: w.name.to_string(),
                format: fmt.id().to_string(),
                target: target.id().to_string(),
                rate_ppm,
                flips: inj.flips(),
                baseline_mpct: base.stats.acc_mpct,
                acc_mpct: stats.acc_mpct,
                nan_ppm: stats.nan_ppm,
                mre_ppm: stats.mre_ppm,
            })
        }
        TaskSpec::Operand {
            fmt,
            rate_ppm,
            cases,
        } => {
            let mut inj = Injector::new(seed, index);
            let mut gen = SplitMix64::stream(seed, index ^ OP_STREAM);
            let span = 1u64 << fmt.bits();
            let mut specials = 0u64;
            let mut err_sum = 0.0f64;
            let mut err_cases = 0u64;
            for _ in 0..cases {
                let a = gen.below(span) as u16;
                let b = gen.below(span) as u16;
                let clean = fmt.mul_code(a, b);
                let fa = inj.corrupt_code(a, fmt.bits(), rate_ppm);
                let fb = inj.corrupt_code(b, fmt.bits(), rate_ppm);
                let faulty = fmt.mul_code(fa, fb);
                if fmt.is_special(faulty) && !fmt.is_special(clean) {
                    specials += 1;
                }
                if !fmt.is_special(faulty) && !fmt.is_special(clean) {
                    let want = f64::from(fmt.decode(clean));
                    let got = f64::from(fmt.decode(faulty));
                    if want.is_finite() && got.is_finite() {
                        err_sum += ((got - want).abs() / want.abs().max(1e-6)).min(10.0);
                        err_cases += 1;
                    }
                }
            }
            RowResult::Operand(OperandRow {
                format: fmt.id().to_string(),
                rate_ppm,
                cases,
                flips: inj.flips(),
                special_ppm: (specials as f64 / cases.max(1) as f64 * 1_000_000.0).round()
                    as u64,
                mre_ppm: if err_cases == 0 {
                    0
                } else {
                    (err_sum / err_cases as f64 * 1_000_000.0).round() as u64
                },
            })
        }
        TaskSpec::Lut { fmt, rate_ppm } => {
            let mut inj = Injector::new(seed, index);
            let mut gen = SplitMix64::stream(seed, index ^ OP_STREAM);
            // Copies of the fused value+event tables the kernels read.
            let mut mul = BinaryTable::build_with_events(|a, b| fmt.mul_scalar_events(a, b));
            let mut add = BinaryTable::build_with_events(|a, b| fmt.add_scalar_events(a, b));
            let touched =
                inj.corrupt_table(&mut mul, rate_ppm) + inj.corrupt_table(&mut add, rate_ppm);
            let (m, k, n) = (24usize, 24usize, 24usize);
            let a: Vec<u8> = (0..m * k).map(|_| gen.below(256) as u8).collect();
            let b: Vec<u8> = (0..k * n).map(|_| gen.below(256) as u8).collect();
            let mut reference = vec![0u8; m * n];
            matmul8_scalar(fmt, &a, &b, &mut reference, m, k, n);
            let mut faulty = vec![0u8; m * n];
            matmul8_parallel(
                &LutOp::from_tables(&mul, &add),
                &a,
                &b,
                &mut faulty,
                m,
                k,
                n,
            );
            let mismatches = faulty
                .iter()
                .zip(&reference)
                .filter(|(x, y)| x != y)
                .count() as u64;
            // The graceful-degradation path: checksum verification must
            // either accept intact tables or fall back to the scalar
            // tier, restoring bit-identical output.
            let mut recovered_out = vec![0u8; m * n];
            let path =
                matmul8_verified(fmt, &mul, &add, &a, &b, &mut recovered_out, m, k, n);
            let recovered = recovered_out == reference
                && (path == LutIntegrity::FellBack) == (touched > 0);
            RowResult::Lut(LutRow {
                format: fmt.id().to_string(),
                rate_ppm,
                corrupted_entries: touched,
                mismatch_ppm: (mismatches as f64 / (m * n) as f64 * 1_000_000.0).round()
                    as u64,
                recovered,
            })
        }
    }
}

// Data-draw substream tag: keeps operand/matrix draws decorrelated from
// the injector stream of the same task.
const OP_STREAM: u64 = 0x6F70_7261_6E64_7321;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_byte_deterministic_across_thread_counts() {
        let base = Options {
            quick: true,
            seed: DEFAULT_SEED,
            threads: 1,
            progress: false,
        };
        let serial = run(&base);
        let threaded = run(&Options {
            threads: 4,
            ..base.clone()
        });
        assert_eq!(serial.to_json(), threaded.to_json());
        assert!(serial.all_recovered(), "LUT fallback always recovers");
        assert!(!serial.models.is_empty());
        assert_eq!(serial.operands.len(), FormatKind::ALL.len());
        assert_eq!(serial.luts.len(), Format8::ALL.len());
    }
}
