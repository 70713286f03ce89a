//! Differential oracle sweep CLI.
//!
//! ```text
//! nga-oracle [--quick] [--json [PATH]] [--task SUBSTR] [--threads N] [--quiet]
//! ```
//!
//! Runs the implementation-vs-oracle sweeps, prints a per-task summary,
//! optionally writes the deterministic JSON report, and exits nonzero if
//! any task recorded a mismatch (the tier-2 CI gate).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::process::ExitCode;

use nga_oracle::report::Report;
use nga_oracle::sweep::{self, Options};

struct Cli {
    opts: Options,
    json: Option<Option<String>>,
}

#[expect(clippy::disallowed_methods, reason = "the CLI's argument parser")]
fn parse_args() -> Result<Cli, String> {
    let mut opts = Options {
        quick: false,
        filter: None,
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
            "--task" => {
                opts.filter = Some(args.next().ok_or("--task needs a substring")?);
            }
            "--threads" => {
                let n = args.next().ok_or("--threads needs a count")?;
                opts.threads = n.parse().map_err(|_| format!("bad thread count {n:?}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: nga-oracle [--quick] [--json [PATH]] [--task SUBSTR] \
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
    println!("nga-oracle sweep ({} mode)", report.mode);
    for t in &report.tasks {
        let status = if t.mismatches == 0 { "ok " } else { "FAIL" };
        println!("  {status} {:<44} {:>12} cases, {} mismatches", t.name, t.cases, t.mismatches);
        for e in &t.examples {
            let ins: Vec<String> = e.minimized.iter().map(|x| format!("{x:#x}")).collect();
            println!(
                "         counterexample [{}]: got {:#x}, want {:#x}",
                ins.join(", "),
                e.got,
                e.want
            );
        }
    }
    println!(
        "total: {} cases, {} mismatches across {} tasks",
        report.total_cases(),
        report.total_mismatches(),
        report.tasks.len()
    );
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
            "ORACLE_REPORT.quick.json"
        } else {
            "ORACLE_REPORT.json"
        };
        let path = path.as_deref().unwrap_or(default);
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }
    if report.total_mismatches() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
