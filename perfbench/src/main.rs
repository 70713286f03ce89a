//! `perfbench`: end-to-end and per-layer benchmark of the `nga-nn` and
//! `nga-kernels` public APIs.
//!
//! ```text
//! perfbench --workload <edge_infer|resnet20_f32|formats8|retrain>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop caller thread runs work items for `--seconds`, checks
//! every item's output, and prints a provenance line, one line per metric
//! (`name value unit`) and, last, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced runs of each item
//! and reports the per-layer metrics. See README.md.

mod catalog;
mod edge_infer;
mod formats8;
mod model;
mod resnet20;
mod retrain;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use nga_nn::Tensor;

use crate::trace::Tracer;

/// Named metric values, in report order.
pub type Metrics = Vec<(String, f64)>;

/// Set-ups per untraced run: this process plus fresh child processes, at
/// least `MIN_SETUPS`, then more until `MAX_SETUPS` or until the children
/// have taken about `SETUP_BUDGET`. `setup_s` is the fastest, for the
/// reason `item_us.p10` is a low quantile (README.md).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(4);

/// Input scale: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// A few-millisecond version of each workload.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// One benchmark workload.
pub trait Workload {
    /// What one item produces, kept for its check.
    type Out;
    /// One work item through the library calls as users make them.
    fn run(&mut self, i: u64) -> Self::Out;
    /// Whether item `i`'s output equals its reference.
    fn check(&self, i: u64, out: &Self::Out) -> bool;
    /// The same item with each public call timed in a span.
    fn traced(&mut self, i: u64, tr: &mut Tracer) -> Self::Out;
    /// Untimed-by-the-item measurements after a traced item (same-run
    /// ceilings, plain library calls); returns whether their checks held.
    fn probe(&mut self, _i: u64, _tr: &mut Tracer) -> bool {
        true
    }
    /// Per-layer metrics from `items` traced items, and whether the checks
    /// made while computing them held.
    fn per_layer(&mut self, tr: &Tracer, items: u64) -> (Metrics, bool);
    /// Informational results printed on untraced runs.
    fn notes(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// Whether two tensors have the same shape and bit-identical values.
#[must_use]
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The `q`-quantile of sorted values, linearly interpolated.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

const USAGE: &str = "usage: perfbench --workload <edge_infer|resnet20_f32|formats8|retrain> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: set up, print `setup_s` and exit (the set-up children).
    setup_only: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            setup_only: false,
        };
        while let Some(flag) = it.next() {
            let mut value = |f: &str| it.next().ok_or(format!("{f} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value("--workload")?,
                "--seed" => {
                    a.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    a.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    };
                }
                "--setup-only" => a.setup_only = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if a.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(a)
    }

    /// The arguments a child process needs to repeat this set-up.
    fn setup_child_args(&self) -> [String; 5] {
        [
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--setup-only".into(),
        ]
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "edge_infer" => drive(start, &args, edge_infer::EdgeInfer::setup),
        "resnet20_f32" => drive(start, &args, resnet20::Resnet20::setup),
        "formats8" => drive(start, &args, formats8::Formats8::setup),
        "retrain" => drive(start, &args, retrain::Retrain::setup),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run measured.
#[derive(Debug)]
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<(&'static str, f64, &'static str)>,
}

fn drive<W: Workload>(
    start: Instant,
    args: &Args,
    setup: fn(u64, Size) -> W,
) -> Result<(), String> {
    let (mut w, warm_ok) = set_up(args, setup);
    let setup_s = start.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {setup_s}");
        return Ok(());
    }
    let window = Duration::from_secs(args.seconds);
    let mut r = if args.trace {
        traced_run(&mut w, args, window)
    } else {
        untraced_run(&mut w, args, window, setup_s)?
    };
    if !warm_ok {
        r.failed += 1;
        r.attempted += 1;
    }
    print_result(args, &r);
    Ok(())
}

/// Set-up: the workload's own, then one checked warm-up item so lazy
/// first-use work (tables, allocations) lands in set-up, not in items.
fn set_up<W: Workload>(args: &Args, setup: fn(u64, Size) -> W) -> (W, bool) {
    let mut w = setup(args.seed, Size::Full);
    let out = w.run(0);
    let ok = w.check(0, &out);
    (w, ok)
}

/// Runs items until `window` has passed; returns per-item wall times in
/// microseconds and the number of items whose check failed.
fn timed_items<W: Workload>(w: &mut W, first: u64, window: Duration) -> (Vec<f64>, u64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut failed = 0;
    let mut i = first;
    while start.elapsed() < window {
        let t = Instant::now();
        let out = w.run(i);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if !w.check(i, &out) {
            failed += 1;
        }
        times.push(us);
        i += 1;
    }
    (times, failed)
}

fn untraced_run<W: Workload>(
    w: &mut W,
    args: &Args,
    window: Duration,
    own_setup_s: f64,
) -> Result<RunResult, String> {
    // Half the set-up children run before the timed items and half after,
    // so the samples straddle the run rather than one moment of it.
    let mut setups = vec![own_setup_s];
    setup_children(args, &mut setups, MIN_SETUPS - 1, MAX_SETUPS / 2)?;
    let (mut times, failed) = timed_items(w, 1, window);
    setup_children(args, &mut setups, MIN_SETUPS, MAX_SETUPS)?;
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    times.sort_by(f64::total_cmp);
    // The bounded item metric is p10; see README.md for why not p50.
    let mut notes = w.notes();
    notes.push(("item_us.mean", mean, "us"));
    notes.push(("item_us.p50", quantile(&times, 0.5), "us"));
    notes.push(("item_us.p90", quantile(&times, 0.9), "us"));
    let metrics = vec![
        ("item_us.p10".into(), quantile(&times, 0.1)),
        (
            "setup_s".into(),
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("peak_rss_mib".into(), peak_rss_mib()?),
    ];
    Ok(RunResult {
        attempted: times.len() as u64,
        failed,
        metrics,
        notes,
    })
}

/// Adds set-up samples from child processes until `setups` holds `min`,
/// then until it holds `max` or `SETUP_BUDGET / 2` has passed.
fn setup_children(
    args: &Args,
    setups: &mut Vec<f64>,
    min: usize,
    max: usize,
) -> Result<(), String> {
    let start = Instant::now();
    while setups.len() < min || (setups.len() < max && start.elapsed() < SETUP_BUDGET / 2) {
        setups.push(child_setup_s(args)?);
    }
    Ok(())
}

/// Set-up time of a fresh process: this program re-run with
/// `--setup-only`, waited for before the next starts.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args.setup_child_args())
        .output()
        .map_err(|e| format!("running set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("set-up child failed: {}", out.status));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("set-up child printed no setup_s: {stdout}"))
}

/// Alternates an untraced and a traced run of each item, so both see the
/// same machine conditions: the untraced one is the baseline for the
/// tracing overhead and gives the nga-obs span count per item; the traced
/// one, followed by the workload's probes, gives the per-layer metrics.
fn traced_run<W: Workload>(w: &mut W, args: &Args, window: Duration) -> RunResult {
    let mut tr = Tracer::new();
    let mut plain = Vec::new();
    let (mut failed, mut obs_spans) = (0, 0);
    let mut i = 1;
    let start = Instant::now();
    while start.elapsed() < window {
        let calls = obs_calls();
        let t = Instant::now();
        let out = w.run(i);
        plain.push(t.elapsed().as_secs_f64() * 1e6);
        obs_spans += obs_calls() - calls;
        failed += u64::from(!w.check(i, &out));
        drop(out);
        tr.set_item(i);
        let out = tr.span("item", |tr| w.traced(i, tr));
        failed += u64::from(!(w.check(i, &out) & w.probe(i, &mut tr)));
        i += 1;
    }
    let traced_items = i - 1;
    let attempted = 2 * traced_items;
    let spans_per_item = obs_spans as f64 / traced_items.max(1) as f64;
    let (mut metrics, ok) = w.per_layer(&tr, traced_items);
    failed += u64::from(!ok);
    let traced_p50 = median(
        tr.durations("item")
            .into_iter()
            .map(|ns| ns as f64 / 1e3)
            .collect(),
    );
    metrics.push(("obs.spans_per_item".into(), spans_per_item));
    metrics.push(("trace.overhead_us".into(), traced_p50 - median(plain)));
    write_spans(args, &tr);
    RunResult {
        attempted,
        failed,
        metrics: complete_per_layer(metrics),
        notes: Vec::new(),
    }
}

/// Orders `reported` as the catalogue does and fills the layers the
/// workload does not call with 0.
///
/// # Panics
///
/// Panics if a workload reports a metric the catalogue lacks.
fn complete_per_layer(reported: Metrics) -> Metrics {
    for (name, _) in &reported {
        assert!(
            catalog::PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in the catalogue"
        );
    }
    catalog::PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = reported
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            ((*name).to_string(), v)
        })
        .collect()
}

/// Total `calls` over every nga-obs scope (0 with the obs layer off).
///
/// Only span entries are read from nga-obs. Its op totals are not used for
/// MAC counts: they count each `ArithCtx::matmul8` twice (the context's
/// `record_at` and the tier's own span) and record no backward MACs, so
/// MACs come from `Layer::macs`, `Network::mac_count` or `m·k·n`.
fn obs_calls() -> u64 {
    nga_obs::snapshot()
        .scopes
        .iter()
        .map(|r| r.counts.calls)
        .sum()
}

/// Whether nga-obs records: a probe span shows up in the snapshot.
fn obs_enabled() -> bool {
    drop(nga_obs::span("perfbench:probe"));
    nga_obs::snapshot().get("perfbench:probe").is_some()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Writes the traced run's spans under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`), for offline inspection.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_tsv()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// The git commit of the working directory, read from `.git` directly
/// (the benchmark may run in a checkout that is not a repository).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn provenance(args: &Args, r: &RunResult) -> String {
    let env = |k: &str| std::env::var(k).map_or("null".into(), |v| json_str(&v));
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Probe obs before opening the context, whose span would nest the probe.
    let obs = if obs_enabled() { "on" } else { "off" };
    let tier = nga_kernels::ArithCtx::new().tier();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"items\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"tier\": {}, \"NGA_KERNEL\": {}, \
         \"NGA_THREADS\": {}, \"obs\": {}, \"commit\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.attempted,
        nga_kernels::num_threads(),
        json_str(tier.name()),
        env("NGA_KERNEL"),
        env("NGA_THREADS"),
        json_str(obs),
        json_str(&git_commit()),
    )
}

fn print_result(args: &Args, r: &RunResult) {
    println!("provenance {}", provenance(args, r));
    for (name, v, unit) in &r.notes {
        println!("{name} {v} {unit}");
    }
    let error_pct = 100.0 * r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "error_pct {error_pct} % ({} of {} items)",
        r.failed, r.attempted
    );
    let mut metrics = String::new();
    for (i, (name, v)) in r.metrics.iter().enumerate() {
        let unit = catalog::unit(name).unwrap_or("");
        println!("{name} {v} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*v),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few items at tiny size, untraced and traced, with every check.
    fn smoke<W: Workload>(setup: fn(u64, Size) -> W) {
        let mut w = setup(3, Size::Tiny);
        for i in 0..3 {
            let out = w.run(i);
            assert!(w.check(i, &out), "untraced item {i}");
        }
        let mut tr = Tracer::new();
        for i in 3..6 {
            let out = tr.span("item", |tr| w.traced(i, tr));
            assert!(w.check(i, &out), "traced item {i}");
            assert!(w.probe(i, &mut tr), "probe {i}");
        }
        let (metrics, ok) = w.per_layer(&tr, 3);
        assert!(ok, "per-layer checks");
        let full = complete_per_layer(metrics);
        assert_eq!(full.len(), catalog::PER_LAYER.len());
        assert!(full.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn edge_infer_smoke() {
        smoke(edge_infer::EdgeInfer::setup);
    }

    #[test]
    fn resnet20_f32_smoke() {
        smoke(resnet20::Resnet20::setup);
    }

    #[test]
    fn formats8_smoke() {
        smoke(formats8::Formats8::setup);
    }

    #[test]
    fn retrain_smoke() {
        smoke(retrain::Retrain::setup);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let ok = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = ok("--workload retrain --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(ok("--trace 2").is_err());
        assert!(ok("--seconds 0").is_err());
        assert!(ok("--bogus").is_err());
    }
}
