//! Fault-injection sweep CLI.
//!
//! ```text
//! nga-faults [--quick] [--json [PATH]] [--seed N] [--threads N] [--quiet]
//! ```
//!
//! Runs the deterministic fault sweep, prints per-format degradation
//! summaries, optionally writes the byte-reproducible JSON report, and
//! exits nonzero if any corrupted-LUT task failed to recover through the
//! checksum-verified scalar fallback.

use std::process::ExitCode;

use nga_faults::report::Report;
use nga_faults::sweep::{self, Options, DEFAULT_SEED};

struct Cli {
    opts: Options,
    json: Option<Option<String>>,
}

#[expect(clippy::disallowed_methods, reason = "the CLI's argument parser")]
fn parse_args() -> Result<Cli, String> {
    let mut opts = Options {
        quick: false,
        seed: DEFAULT_SEED,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        progress: true,
    };
    let mut json: Option<Option<String>> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--quiet" => opts.progress = false,
            "--json" => {
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next(),
                    _ => None,
                };
                json = Some(path);
            }
            "--seed" => {
                let n = args.next().ok_or("--seed needs a value")?;
                opts.seed = n.parse().map_err(|_| format!("bad seed {n:?}"))?;
            }
            "--threads" => {
                let n = args.next().ok_or("--threads needs a count")?;
                opts.threads = n.parse().map_err(|_| format!("bad thread count {n:?}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: nga-faults [--quick] [--json [PATH]] [--seed N] \
                     [--threads N] [--quiet]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli { opts, json })
}

fn print_summary(report: &Report) {
    println!("nga-faults sweep ({} mode, seed {:#x})", report.mode, report.seed);
    println!("model degradation (top-1 accuracy, milli-percent):");
    for r in &report.models {
        println!(
            "  {:<12} {:<9} {:<12} rate {:>6} ppm: {:>7} -> {:>7} (drop {:>7}), \
             nan {:>7} ppm, mre {:>9} ppm",
            r.workload,
            r.format,
            r.target,
            r.rate_ppm,
            r.baseline_mpct,
            r.acc_mpct,
            r.drop_mpct(),
            r.nan_ppm,
            r.mre_ppm
        );
    }
    println!("operand upsets (isolated multiplies):");
    for r in &report.operands {
        println!(
            "  {:<9} rate {:>6} ppm: {:>6} cases, {:>5} flips, \
             special {:>7} ppm, mre {:>9} ppm",
            r.format, r.rate_ppm, r.cases, r.flips, r.special_ppm, r.mre_ppm
        );
    }
    println!("lookup-table corruption (fused-table kernel vs scalar kernel):");
    for r in &report.luts {
        let status = if r.recovered { "recovered" } else { "NOT RECOVERED" };
        println!(
            "  {:<12} rate {:>6} ppm: {:>6} entries hit, mismatch {:>7} ppm, {status}",
            r.format, r.rate_ppm, r.corrupted_entries, r.mismatch_ppm
        );
    }
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = sweep::run(&cli.opts);
    print_summary(&report);
    if let Some(path) = &cli.json {
        let default = if cli.opts.quick {
            "FAULTS_REPORT.quick.json"
        } else {
            "FAULTS_REPORT.json"
        };
        let path = path.as_deref().unwrap_or(default);
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }
    if report.all_recovered() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
