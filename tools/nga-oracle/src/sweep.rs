//! Differential sweep driver: exhaustive 8-bit sweeps, row-sharded
//! exhaustive 16-bit sweeps on [`std::thread::scope`], and stratified
//! boundary-biased sampling for the wider/ternary cases.
//!
//! Every task evaluates `(implementation, oracle)` over a deterministic
//! input set, counts mismatches, and keeps a handful of counterexamples
//! which are then minimized by greedy bit-clearing.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use nga_core::{Posit, PositFormat};
use nga_fixed::{Fixed, FixedFormat, OverflowMode, RoundingMode};
use nga_kernels::{add_table, mul_table, Format8, KernelTier};
use nga_softfloat::{FloatFormat, Rounding, SoftFloat, SubnormalMode};

use crate::float::{self, host};
use crate::posit::{PositOracle, PositSpec, PositVal};
use crate::report::{Example, Report, TaskReport};
use crate::{fixedpt, FloatSpec};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Reduced input sets for CI gating.
    pub quick: bool,
    /// Only run tasks whose name contains this substring.
    pub filter: Option<String>,
    /// Worker threads for the sharded 16-bit sweeps.
    pub threads: usize,
    /// Emit per-task progress on stderr.
    pub progress: bool,
}

const MAX_EXAMPLES: usize = 6;
/// Rows grabbed per shard claim in the 16-bit sweeps.
const ROW_CHUNK: u64 = 64;

/// Mutable per-shard tally.
#[derive(Debug, Default, Clone)]
struct Outcome {
    cases: u64,
    mismatches: u64,
    raw: Vec<Vec<u64>>,
}

impl Outcome {
    fn record(&mut self, inputs: &[u64], got: u64, want: u64) {
        self.cases += 1;
        if got != want {
            self.mismatches += 1;
            if self.raw.len() < MAX_EXAMPLES {
                self.raw.push(inputs.to_vec());
            }
        }
    }

    fn merge(mut shards: Vec<Self>) -> Self {
        let mut all = Self::default();
        for s in &mut shards {
            all.cases += s.cases;
            all.mismatches += s.mismatches;
            all.raw.append(&mut s.raw);
        }
        all.raw.sort_unstable();
        all.raw.dedup();
        all.raw.truncate(MAX_EXAMPLES);
        all
    }
}

/// A deterministic xorshift64 stream (no host entropy).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Per-case RNG: independent of evaluation order, so sampled sweeps are
/// reproducible under any sharding.
fn case_rng(seed: u64, i: u64) -> XorShift {
    let mut r = XorShift::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next();
    r.next();
    r
}

/// A boundary-biased code for an IEEE-style format: uniform, all-ones
/// fraction, power-of-two, subnormal-region and top-exponent strata.
fn biased_float_code(r: &mut XorShift, spec: FloatSpec) -> u64 {
    let x = r.next();
    let width = spec.exp_bits + spec.frac_bits + 1;
    let code = x & ((1u64 << width) - 1);
    let frac_mask = (1u64 << spec.frac_bits) - 1;
    let sign_bit = 1u64 << (width - 1);
    let exp_top = ((1u64 << spec.exp_bits) - 2) << spec.frac_bits;
    match (x >> 48) & 7 {
        0 => code | frac_mask,
        1 => code & !frac_mask,
        2 => code & (frac_mask | sign_bit),
        3 => (code & (frac_mask | sign_bit)) | exp_top,
        _ => code,
    }
}

/// A boundary-biased posit code: uniform plus long-regime strata near
/// minpos/maxpos and their negations (the taper boundaries).
fn biased_posit_code(r: &mut XorShift, n: u32) -> u64 {
    let x = r.next();
    let mask = (1u64 << n) - 1;
    let code = x & mask;
    let nar = 1u64 << (n - 1);
    match (x >> 48) & 7 {
        0 => code & 0x1F,                        // tiny positive (long 0-regime)
        1 => (nar - 1) - (code & 0x1F),          // near maxpos
        2 => (code & 0x1F).wrapping_neg() & mask, // tiny negative
        3 => (nar + 1 + (code & 0x1F)) & mask,   // near negative maxpos / NaR edge
        _ => code,
    }
}

/// Greedy bit-clearing minimization: clear any bit that keeps the case
/// failing, repeated until a fixed point (bounded passes).
fn minimize(inputs: &[u64], eval: &dyn Fn(&[u64]) -> (u64, u64)) -> Example {
    let mut cur = inputs.to_vec();
    for _ in 0..4 {
        let mut improved = false;
        for slot in 0..cur.len() {
            for bit in (0..64).rev() {
                let m = 1u64 << bit;
                let word = cur.get(slot).copied().unwrap_or(0);
                if word & m == 0 {
                    continue;
                }
                let cand: Vec<u64> = cur
                    .iter()
                    .enumerate()
                    .map(|(j, &w)| if j == slot { w & !m } else { w })
                    .collect();
                let (g, w) = eval(&cand);
                if g != w {
                    cur = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let (got, want) = eval(&cur);
    Example {
        inputs: inputs.to_vec(),
        minimized: cur,
        got,
        want,
    }
}

fn finalize(name: &str, out: Outcome, eval: &dyn Fn(&[u64]) -> (u64, u64)) -> TaskReport {
    let examples = out.raw.iter().map(|ins| minimize(ins, eval)).collect();
    TaskReport {
        name: name.to_string(),
        cases: out.cases,
        mismatches: out.mismatches,
        examples,
    }
}

/// Exhaustive (or row-strided) pair sweep, row-sharded across threads
/// with an atomic work-stealing cursor.
fn sweep_pairs(
    limit: u64,
    stride_a: u64,
    threads: usize,
    progress: Option<&str>,
    eval: &(dyn Fn(u64, u64) -> (u64, u64) + Sync),
) -> Outcome {
    let rows: Vec<u64> = (0..limit).step_by(stride_a.max(1) as usize).collect();
    let next = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let total = rows.len() as u64;
    let workers = threads.max(1);
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Outcome::default();
                    loop {
                        let start = next.fetch_add(ROW_CHUNK, AtomicOrdering::Relaxed);
                        if start >= total {
                            break;
                        }
                        let end = (start + ROW_CHUNK).min(total);
                        for &a in rows.get(start as usize..end as usize).unwrap_or(&[]) {
                            for b in 0..limit {
                                let (got, want) = eval(a, b);
                                local.record(&[a, b], got, want);
                            }
                        }
                        if let Some(name) = progress {
                            let d = done.fetch_add(end - start, AtomicOrdering::Relaxed) + (end - start);
                            if d.is_multiple_of(4096) || d == total {
                                eprintln!("    {name}: {d}/{total} rows");
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect::<Vec<_>>()
    });
    Outcome::merge(shards)
}

fn sweep_unary(limit: u64, eval: &dyn Fn(u64) -> (u64, u64)) -> Outcome {
    let mut o = Outcome::default();
    for a in 0..limit {
        let (got, want) = eval(a);
        o.record(&[a], got, want);
    }
    o
}

fn sweep_triples(
    limit: u64,
    stride_c: u64,
    eval: &dyn Fn(u64, u64, u64) -> (u64, u64),
) -> Outcome {
    let mut o = Outcome::default();
    for a in 0..limit {
        for b in 0..limit {
            let mut c = 0;
            while c < limit {
                let (got, want) = eval(a, b, c);
                o.record(&[a, b, c], got, want);
                c += stride_c.max(1);
            }
        }
    }
    o
}

fn sweep_sampled(
    count: u64,
    seed: u64,
    gen: &dyn Fn(&mut XorShift) -> Vec<u64>,
    eval: &dyn Fn(&[u64]) -> (u64, u64),
) -> Outcome {
    let mut o = Outcome::default();
    for i in 0..count {
        let mut r = case_rng(seed, i);
        let ins = gen(&mut r);
        let (got, want) = eval(&ins);
        o.record(&ins, got, want);
    }
    o
}

// ---------------------------------------------------------------------
// Implementation-vs-oracle evaluators
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

const MODES: [(Rounding, &str); 5] = [
    (Rounding::NearestEven, "rne"),
    (Rounding::NearestAway, "rna"),
    (Rounding::TowardZero, "rtz"),
    (Rounding::TowardPositive, "rtp"),
    (Rounding::TowardNegative, "rtn"),
];

fn sf_bin(op: BinOp, fmt: FloatFormat) -> impl Fn(u64, u64) -> (u64, u64) + Sync {
    move |a, b| {
        let x = SoftFloat::from_bits(a, fmt);
        let y = SoftFloat::from_bits(b, fmt);
        let got = match op {
            BinOp::Add => x.add(y),
            BinOp::Sub => x.sub(y),
            BinOp::Mul => x.mul(y),
            BinOp::Div => x.div(y),
        }
        .bits();
        let want = match op {
            BinOp::Add => float::add_bits(a, b, fmt),
            BinOp::Sub => float::sub_bits(a, b, fmt),
            BinOp::Mul => float::mul_bits(a, b, fmt),
            BinOp::Div => float::div_bits(a, b, fmt),
        };
        (got, want)
    }
}

fn posit_bin<'a>(
    op: BinOp,
    fmt: PositFormat,
    oracle: &'a PositOracle,
) -> impl Fn(u64, u64) -> (u64, u64) + Sync + 'a {
    move |a, b| {
        let x = Posit::from_bits(a, fmt);
        let y = Posit::from_bits(b, fmt);
        let got = match op {
            BinOp::Add => x.add(y),
            BinOp::Sub => x.sub(y),
            BinOp::Mul => x.mul(y),
            BinOp::Div => x.div(y),
        }
        .bits();
        let want = match op {
            BinOp::Add => oracle.add_bits(a, b),
            BinOp::Sub => oracle.sub_bits(a, b),
            BinOp::Mul => oracle.mul_bits(a, b),
            BinOp::Div => oracle.div_bits(a, b),
        };
        (got, want)
    }
}

/// Decode-table-accelerated posit evaluator for the 2^32 sweeps: both
/// sides skip per-pair bit decoding.
fn posit_bin_fast<'a>(
    op: BinOp,
    fmt: PositFormat,
    oracle: &'a PositOracle,
    dec: &'a [PositVal],
) -> impl Fn(u64, u64) -> (u64, u64) + Sync + 'a {
    move |a, b| {
        let x = Posit::from_bits(a, fmt);
        let y = Posit::from_bits(b, fmt);
        let got = match op {
            BinOp::Add => x.add(y),
            BinOp::Mul => x.mul(y),
            BinOp::Sub => x.sub(y),
            BinOp::Div => x.div(y),
        }
        .bits();
        let va = dec.get(a as usize).copied().unwrap_or(PositVal::Nar);
        let vb = dec.get(b as usize).copied().unwrap_or(PositVal::Nar);
        let nar = oracle.spec().nar_bits();
        let want = match (va, vb) {
            (PositVal::Nar, _) | (_, PositVal::Nar) => nar,
            (PositVal::Zero, PositVal::Zero) => match op {
                BinOp::Div => nar,
                _ => 0,
            },
            (PositVal::Zero, PositVal::Fin(v)) => match op {
                BinOp::Add => oracle.round(&v),
                BinOp::Sub => {
                    let mut n = v;
                    n.sign = !n.sign;
                    oracle.round(&n)
                }
                BinOp::Mul | BinOp::Div => 0,
            },
            (PositVal::Fin(v), PositVal::Zero) => match op {
                BinOp::Add | BinOp::Sub => oracle.round(&v),
                BinOp::Mul => 0,
                BinOp::Div => nar,
            },
            (PositVal::Fin(x), PositVal::Fin(y)) => {
                let y = if op == BinOp::Sub {
                    let mut n = y;
                    n.sign = !n.sign;
                    n
                } else {
                    y
                };
                match op {
                    BinOp::Add | BinOp::Sub => match x.add(&y) {
                        None => 0,
                        Some(s) => oracle.round(&s),
                    },
                    BinOp::Mul => oracle.round(&x.mul(&y)),
                    BinOp::Div => oracle.round(&x.div(&y)),
                }
            }
        };
        (got, want)
    }
}

fn format8_oracle_mul(fmt: Format8, a: u8, b: u8, p8: &PositOracle) -> u8 {
    match fmt {
        Format8::Posit8 => p8.mul_bits(u64::from(a), u64::from(b)) as u8,
        Format8::E4m3 => float::mul_bits(u64::from(a), u64::from(b), FloatFormat::FP8_E4M3) as u8,
        Format8::E5m2 => float::mul_bits(u64::from(a), u64::from(b), FloatFormat::FP8_E5M2) as u8,
        Format8::Fixed8 => fixedpt::mul_q44(a, b),
    }
}

fn format8_oracle_add(fmt: Format8, a: u8, b: u8, p8: &PositOracle) -> u8 {
    match fmt {
        Format8::Posit8 => p8.add_bits(u64::from(a), u64::from(b)) as u8,
        Format8::E4m3 => float::add_bits(u64::from(a), u64::from(b), FloatFormat::FP8_E4M3) as u8,
        Format8::E5m2 => float::add_bits(u64::from(a), u64::from(b), FloatFormat::FP8_E5M2) as u8,
        Format8::Fixed8 => fixedpt::add_q44(a, b),
    }
}

fn fixed_q44(raw: u64) -> Fixed {
    Fixed::from_raw(i128::from(raw as u8 as i8), FixedFormat::Q4_4)
        .unwrap_or_else(|_| Fixed::zero(FixedFormat::Q4_4))
}

// ---------------------------------------------------------------------
// The task registry
// ---------------------------------------------------------------------

struct Runner {
    opts: Options,
    tasks: Vec<TaskReport>,
}

impl Runner {
    fn active(&self, name: &str) -> bool {
        self.opts
            .filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }

    fn begin(&self, name: &str) {
        if self.opts.progress {
            eprintln!("  task {name}");
        }
    }

    fn push_pairs(
        &mut self,
        name: &str,
        limit: u64,
        stride_a: u64,
        eval: &(dyn Fn(u64, u64) -> (u64, u64) + Sync),
    ) {
        if !self.active(name) {
            return;
        }
        self.begin(name);
        let progress = if limit > 4096 && self.opts.progress {
            Some(name)
        } else {
            None
        };
        let o = sweep_pairs(limit, stride_a, self.opts.threads, progress, eval);
        let slice_eval = |ins: &[u64]| {
            eval(
                ins.first().copied().unwrap_or(0),
                ins.get(1).copied().unwrap_or(0),
            )
        };
        self.tasks.push(finalize(name, o, &slice_eval));
    }

    fn push_unary(&mut self, name: &str, limit: u64, eval: &dyn Fn(u64) -> (u64, u64)) {
        if !self.active(name) {
            return;
        }
        self.begin(name);
        let o = sweep_unary(limit, eval);
        let slice_eval = |ins: &[u64]| eval(ins.first().copied().unwrap_or(0));
        self.tasks.push(finalize(name, o, &slice_eval));
    }

    fn push_triples(
        &mut self,
        name: &str,
        limit: u64,
        stride_c: u64,
        eval: &dyn Fn(u64, u64, u64) -> (u64, u64),
    ) {
        if !self.active(name) {
            return;
        }
        self.begin(name);
        let o = sweep_triples(limit, stride_c, eval);
        let slice_eval = |ins: &[u64]| {
            eval(
                ins.first().copied().unwrap_or(0),
                ins.get(1).copied().unwrap_or(0),
                ins.get(2).copied().unwrap_or(0),
            )
        };
        self.tasks.push(finalize(name, o, &slice_eval));
    }

    fn push_sampled(
        &mut self,
        name: &str,
        count: u64,
        seed: u64,
        gen: &dyn Fn(&mut XorShift) -> Vec<u64>,
        eval: &dyn Fn(&[u64]) -> (u64, u64),
    ) {
        if !self.active(name) {
            return;
        }
        self.begin(name);
        let o = sweep_sampled(count, seed, gen, eval);
        self.tasks.push(finalize(name, o, eval));
    }
}

/// Runs the configured sweep and returns its report.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let quick = opts.quick;
    let mut r = Runner {
        opts: opts.clone(),
        tasks: Vec::new(),
    };

    // Reference rounders (tables) for every posit format under test.
    let p8 = PositOracle::new(PositSpec { n: 8, es: 0 });
    let p16 = PositOracle::new(PositSpec { n: 16, es: 1 });
    let sp8 = PositOracle::new(PositSpec { n: 8, es: 2 });
    let sp16 = PositOracle::new(PositSpec { n: 16, es: 2 });

    let sample_n = |full: u64| if quick { full / 20 } else { full };

    // ----- 8-bit exhaustive: posit8 ---------------------------------
    for (op, opname) in [
        (BinOp::Add, "add"),
        (BinOp::Sub, "sub"),
        (BinOp::Mul, "mul"),
        (BinOp::Div, "div"),
    ] {
        let eval = posit_bin(op, PositFormat::POSIT8, &p8);
        r.push_pairs(&format!("exh8/posit8/{opname}/scalar"), 256, 1, &eval);
        let eval = posit_bin(op, PositFormat::STD_POSIT8, &sp8);
        r.push_pairs(&format!("exh8/std_posit8/{opname}/scalar"), 256, 1, &eval);
    }
    r.push_unary("exh8/posit8/sqrt/scalar", 256, &|a| {
        (
            Posit::from_bits(a, PositFormat::POSIT8).sqrt().bits(),
            p8.sqrt_bits(a),
        )
    });
    r.push_unary("exh8/std_posit8/sqrt/scalar", 256, &|a| {
        (
            Posit::from_bits(a, PositFormat::STD_POSIT8).sqrt().bits(),
            sp8.sqrt_bits(a),
        )
    });
    r.push_triples(
        "exh8/posit8/fma/scalar",
        256,
        if quick { 16 } else { 1 },
        &|a, b, c| {
            let f = PositFormat::POSIT8;
            (
                Posit::from_bits(a, f)
                    .fma(Posit::from_bits(b, f), Posit::from_bits(c, f))
                    .bits(),
                p8.fma_bits(a, b, c),
            )
        },
    );

    // ----- 8-bit exhaustive: FP8 under all five rounding modes ------
    for (fname, base) in [("e4m3", FloatFormat::FP8_E4M3), ("e5m2", FloatFormat::FP8_E5M2)] {
        for (mode, mname) in MODES {
            let fmt = base.with_rounding(mode);
            for (op, opname) in [
                (BinOp::Add, "add"),
                (BinOp::Sub, "sub"),
                (BinOp::Mul, "mul"),
                (BinOp::Div, "div"),
            ] {
                let eval = sf_bin(op, fmt);
                r.push_pairs(&format!("exh8/{fname}/{opname}/scalar@{mname}"), 256, 1, &eval);
            }
            r.push_unary(&format!("exh8/{fname}/sqrt/scalar@{mname}"), 256, &|a| {
                (
                    SoftFloat::from_bits(a, fmt).sqrt().bits(),
                    float::sqrt_bits(a, fmt),
                )
            });
            r.push_triples(
                &format!("exh8/{fname}/fma/scalar@{mname}"),
                256,
                if quick { 32 } else { 1 },
                &|a, b, c| {
                    (
                        SoftFloat::from_bits(a, fmt)
                            .fma(SoftFloat::from_bits(b, fmt), SoftFloat::from_bits(c, fmt))
                            .bits(),
                        float::fma_bits(a, b, c, fmt),
                    )
                },
            );
        }
        // Flush-to-zero variants (RNE).
        let fmt = base.with_subnormal_mode(SubnormalMode::FlushToZero);
        for (op, opname) in [(BinOp::Add, "add"), (BinOp::Mul, "mul"), (BinOp::Div, "div")] {
            let eval = sf_bin(op, fmt);
            r.push_pairs(&format!("exh8/{fname}/{opname}/scalar@rne+ftz"), 256, 1, &eval);
        }
        r.push_unary(&format!("exh8/{fname}/sqrt/scalar@rne+ftz"), 256, &|a| {
            (
                SoftFloat::from_bits(a, fmt).sqrt().bits(),
                float::sqrt_bits(a, fmt),
            )
        });
        r.push_triples(
            &format!("exh8/{fname}/fma/scalar@rne+ftz"),
            256,
            if quick { 32 } else { 1 },
            &|a, b, c| {
                (
                    SoftFloat::from_bits(a, fmt)
                        .fma(SoftFloat::from_bits(b, fmt), SoftFloat::from_bits(c, fmt))
                        .bits(),
                    float::fma_bits(a, b, c, fmt),
                )
            },
        );
    }

    // ----- 8-bit exhaustive: fixed Q4.4 -----------------------------
    r.push_pairs("exh8/fixed8/add/scalar", 256, 1, &|a, b| {
        (
            u64::from(Format8::Fixed8.add_scalar_events(a as u8, b as u8).0),
            u64::from(fixedpt::add_q44(a as u8, b as u8)),
        )
    });
    r.push_pairs("exh8/fixed8/mul/scalar", 256, 1, &|a, b| {
        (
            u64::from(Format8::Fixed8.mul_scalar_events(a as u8, b as u8).0),
            u64::from(fixedpt::mul_q44(a as u8, b as u8)),
        )
    });
    r.push_pairs("exh8/fixed8/sub/scalar", 256, 1, &|a, b| {
        let got = fixed_q44(a)
            .checked_sub(fixed_q44(b))
            .map_or(0x1_0000, |f| f.raw() as u8 as u64);
        (got, u64::from(fixedpt::sub_q44(a as u8, b as u8)))
    });
    r.push_unary("exh8/fixed8/neg/scalar", 256, &|a| {
        (
            fixed_q44(a).saturating_neg().raw() as u8 as u64,
            u64::from(fixedpt::neg_q44(a as u8)),
        )
    });
    // Q4.4 conversions to narrower/wider fixed formats, all four
    // rounding modes, saturating.
    let targets: Vec<(String, FixedFormat)> = [(2u32, 2u32), (6, 2), (2, 6)]
        .iter()
        .filter_map(|&(i, f)| {
            FixedFormat::signed(i, f)
                .ok()
                .map(|fmt| (format!("q{i}.{f}"), fmt))
        })
        .collect();
    for (tname, tfmt) in &targets {
        for (mode, mname) in [
            (RoundingMode::Truncate, "trunc"),
            (RoundingMode::Floor, "floor"),
            (RoundingMode::NearestEven, "rne"),
            (RoundingMode::NearestTiesAway, "rna"),
        ] {
            let name = format!("exh8/fixed8/convert/{tname}@{mname}");
            let tfmt = *tfmt;
            r.push_unary(&name, 256, &move |a| {
                let got = fixed_q44(a)
                    .convert(tfmt, mode, OverflowMode::Saturate)
                    .map_or(0xDEAD_u64, |f| f.raw() as u64 & 0xFFFF);
                let want = fixedpt::convert_sat(
                    i128::from(a as u8 as i8),
                    FixedFormat::Q4_4,
                    tfmt,
                    mode,
                )
                .map_or(0xBEEF_u64, |v| v as u64 & 0xFFFF);
                (got, want)
            });
        }
    }

    // ----- 8-bit LUT tier -------------------------------------------
    for fmt in Format8::ALL {
        let mt = mul_table(fmt);
        let at = add_table(fmt);
        let name = format!("exh8/{}/mul/table", fmt.id());
        r.push_pairs(&name, 256, 1, &|a, b| {
            (
                u64::from(mt.get(a as u8, b as u8)),
                u64::from(format8_oracle_mul(fmt, a as u8, b as u8, &p8)),
            )
        });
        let name = format!("exh8/{}/add/table", fmt.id());
        r.push_pairs(&name, 256, 1, &|a, b| {
            (
                u64::from(at.get(a as u8, b as u8)),
                u64::from(format8_oracle_add(fmt, a as u8, b as u8, &p8)),
            )
        });
    }

    // ----- kernel tiers: all-pairs outer product --------------------
    for fmt in Format8::ALL {
        for tier in KernelTier::ALL {
            let name = format!("tiers8/{}/matmul/{tier}", fmt.id());
            if !r.active(&name) {
                continue;
            }
            r.begin(&name);
            let a: Vec<u8> = (0..=255u8).collect();
            let b: Vec<u8> = (0..=255u8).collect();
            let mut out = vec![0u8; 65536];
            tier.matmul8(fmt, &a, &b, &mut out, 256, 1, 256);
            let mut o = Outcome::default();
            for (idx, &got) in out.iter().enumerate() {
                let (i, j) = ((idx >> 8) as u8, (idx & 255) as u8);
                let m = format8_oracle_mul(fmt, i, j, &p8);
                let want = format8_oracle_add(fmt, 0, m, &p8);
                o.record(&[u64::from(i), u64::from(j)], u64::from(got), u64::from(want));
            }
            let eval = |ins: &[u64]| {
                let (i, j) = (
                    ins.first().copied().unwrap_or(0) as u8,
                    ins.get(1).copied().unwrap_or(0) as u8,
                );
                let mut cell = [0u8; 1];
                tier.matmul8(fmt, &[i], &[j], &mut cell, 1, 1, 1);
                let m = format8_oracle_mul(fmt, i, j, &p8);
                let want = format8_oracle_add(fmt, 0, m, &p8);
                (u64::from(cell.first().copied().unwrap_or(0)), u64::from(want))
            };
            r.tasks.push(finalize(&name, o, &eval));
        }
    }

    // ----- 16-bit exhaustive (row-sharded 2^32) ---------------------
    let stride16 = if quick { 509 } else { 1 };
    let f16 = FloatFormat::BINARY16;
    for (op, opname) in [(BinOp::Add, "add"), (BinOp::Mul, "mul")] {
        let eval = sf_bin(op, f16);
        r.push_pairs(
            &format!("exh16/binary16/{opname}@rne"),
            65536,
            stride16,
            &eval,
        );
    }
    let dec16: Vec<PositVal> = (0..65536u64).map(|c| p16.spec().decode(c)).collect();
    for (op, opname) in [(BinOp::Add, "add"), (BinOp::Mul, "mul")] {
        let eval = posit_bin_fast(op, PositFormat::POSIT16, &p16, &dec16);
        r.push_pairs(&format!("exh16/posit16/{opname}"), 65536, stride16, &eval);
    }
    // Unary 16-bit sweeps are cheap: run sqrt exhaustively everywhere.
    for (mode, mname) in MODES {
        let fmt = f16.with_rounding(mode);
        r.push_unary(&format!("exh16/binary16/sqrt@{mname}"), 65536, &|a| {
            (
                SoftFloat::from_bits(a, fmt).sqrt().bits(),
                float::sqrt_bits(a, fmt),
            )
        });
    }
    r.push_unary("exh16/posit16/sqrt", 65536, &|a| {
        (
            Posit::from_bits(a, PositFormat::POSIT16).sqrt().bits(),
            p16.sqrt_bits(a),
        )
    });
    r.push_unary("exh16/std_posit16/sqrt", 65536, &|a| {
        (
            Posit::from_bits(a, PositFormat::STD_POSIT16).sqrt().bits(),
            sp16.sqrt_bits(a),
        )
    });
    // Format conversions: binary16 → narrower formats, every mode.
    for (tname, tbase) in [
        ("e4m3", FloatFormat::FP8_E4M3),
        ("e5m2", FloatFormat::FP8_E5M2),
        ("bfloat16", FloatFormat::BFLOAT16),
    ] {
        for (mode, mname) in MODES {
            let tfmt = tbase.with_rounding(mode);
            let tspec = FloatSpec::of(tfmt);
            let name = format!("exh16/convert/binary16->{tname}@{mname}");
            r.push_unary(&name, 65536, &|a| {
                let got = SoftFloat::from_bits(a, f16).convert(tfmt).bits();
                let want = match FloatSpec::of(f16).decode(a) {
                    float::FloatVal::Nan => tspec.qnan_bits(),
                    float::FloatVal::Inf(s) => tspec.inf_bits(s),
                    float::FloatVal::Zero(s) => tspec.zero_bits(s),
                    float::FloatVal::Fin(v) => tspec.round(&v, mode, false),
                };
                (got, want)
            });
        }
    }

    // ----- 16-bit sampled, boundary-biased --------------------------
    let f16_spec = FloatSpec::of(f16);
    let gen_f16_pair = |r: &mut XorShift| vec![biased_float_code(r, f16_spec), biased_float_code(r, f16_spec)];
    let gen_f16_triple = |r: &mut XorShift| {
        vec![
            biased_float_code(r, f16_spec),
            biased_float_code(r, f16_spec),
            biased_float_code(r, f16_spec),
        ]
    };
    let mut seed = 0x5EED_0001u64;
    for (mode, mname) in MODES {
        let fmt = f16.with_rounding(mode);
        if mode != Rounding::NearestEven {
            // RNE add/mul are exhaustive above; sample the directed modes.
            for (op, opname) in [(BinOp::Add, "add"), (BinOp::Mul, "mul")] {
                let eval = sf_bin(op, fmt);
                let se = |ins: &[u64]| {
                    eval(
                        ins.first().copied().unwrap_or(0),
                        ins.get(1).copied().unwrap_or(0),
                    )
                };
                seed += 1;
                r.push_sampled(
                    &format!("sample16/binary16/{opname}@{mname}"),
                    sample_n(4_000_000),
                    seed,
                    &gen_f16_pair,
                    &se,
                );
            }
        }
        let eval = sf_bin(BinOp::Div, fmt);
        let se = |ins: &[u64]| {
            eval(
                ins.first().copied().unwrap_or(0),
                ins.get(1).copied().unwrap_or(0),
            )
        };
        seed += 1;
        r.push_sampled(
            &format!("sample16/binary16/div@{mname}"),
            sample_n(2_000_000),
            seed,
            &gen_f16_pair,
            &se,
        );
        let fe = |ins: &[u64]| {
            let (a, b, c) = (
                ins.first().copied().unwrap_or(0),
                ins.get(1).copied().unwrap_or(0),
                ins.get(2).copied().unwrap_or(0),
            );
            (
                SoftFloat::from_bits(a, fmt)
                    .fma(SoftFloat::from_bits(b, fmt), SoftFloat::from_bits(c, fmt))
                    .bits(),
                float::fma_bits(a, b, c, fmt),
            )
        };
        seed += 1;
        r.push_sampled(
            &format!("sample16/binary16/fma@{mname}"),
            sample_n(2_000_000),
            seed,
            &gen_f16_triple,
            &fe,
        );
    }
    // FTZ sampled (RNE).
    {
        let fmt = f16.with_subnormal_mode(SubnormalMode::FlushToZero);
        for (op, opname) in [(BinOp::Add, "add"), (BinOp::Mul, "mul"), (BinOp::Div, "div")] {
            let eval = sf_bin(op, fmt);
            let se = |ins: &[u64]| {
                eval(
                    ins.first().copied().unwrap_or(0),
                    ins.get(1).copied().unwrap_or(0),
                )
            };
            seed += 1;
            r.push_sampled(
                &format!("sample16/binary16/{opname}@rne+ftz"),
                sample_n(1_000_000),
                seed,
                &gen_f16_pair,
                &se,
            );
        }
    }
    // Wider presets: bfloat16 and FP19 under RNE plus one directed mode.
    for (fname, base, dmode, dname) in [
        ("bfloat16", FloatFormat::BFLOAT16, Rounding::TowardPositive, "rtp"),
        ("fp19", FloatFormat::FP19, Rounding::TowardNegative, "rtn"),
    ] {
        let spec = FloatSpec::of(base);
        let gen = |r: &mut XorShift| vec![biased_float_code(r, spec), biased_float_code(r, spec)];
        let gen3 = |r: &mut XorShift| {
            vec![
                biased_float_code(r, spec),
                biased_float_code(r, spec),
                biased_float_code(r, spec),
            ]
        };
        for (mode, mname) in [(Rounding::NearestEven, "rne"), (dmode, dname)] {
            let fmt = base.with_rounding(mode);
            for (op, opname) in [
                (BinOp::Add, "add"),
                (BinOp::Mul, "mul"),
                (BinOp::Div, "div"),
            ] {
                let eval = sf_bin(op, fmt);
                let se = |ins: &[u64]| {
                    eval(
                        ins.first().copied().unwrap_or(0),
                        ins.get(1).copied().unwrap_or(0),
                    )
                };
                seed += 1;
                r.push_sampled(
                    &format!("sample16/{fname}/{opname}@{mname}"),
                    sample_n(1_000_000),
                    seed,
                    &gen,
                    &se,
                );
            }
            let fe = |ins: &[u64]| {
                let (a, b, c) = (
                    ins.first().copied().unwrap_or(0),
                    ins.get(1).copied().unwrap_or(0),
                    ins.get(2).copied().unwrap_or(0),
                );
                (
                    SoftFloat::from_bits(a, fmt)
                        .fma(SoftFloat::from_bits(b, fmt), SoftFloat::from_bits(c, fmt))
                        .bits(),
                    float::fma_bits(a, b, c, fmt),
                )
            };
            seed += 1;
            r.push_sampled(
                &format!("sample16/{fname}/fma@{mname}"),
                sample_n(1_000_000),
                seed,
                &gen3,
                &fe,
            );
        }
    }
    // Posit16 div/fma and std_posit16 add/mul, sampled.
    {
        let gen = |r: &mut XorShift| vec![biased_posit_code(r, 16), biased_posit_code(r, 16)];
        let gen3 = |r: &mut XorShift| {
            vec![
                biased_posit_code(r, 16),
                biased_posit_code(r, 16),
                biased_posit_code(r, 16),
            ]
        };
        let dv = posit_bin(BinOp::Div, PositFormat::POSIT16, &p16);
        let se = |ins: &[u64]| {
            dv(
                ins.first().copied().unwrap_or(0),
                ins.get(1).copied().unwrap_or(0),
            )
        };
        seed += 1;
        r.push_sampled("sample16/posit16/div", sample_n(2_000_000), seed, &gen, &se);
        let fe = |ins: &[u64]| {
            let f = PositFormat::POSIT16;
            let (a, b, c) = (
                ins.first().copied().unwrap_or(0),
                ins.get(1).copied().unwrap_or(0),
                ins.get(2).copied().unwrap_or(0),
            );
            (
                Posit::from_bits(a, f)
                    .fma(Posit::from_bits(b, f), Posit::from_bits(c, f))
                    .bits(),
                p16.fma_bits(a, b, c),
            )
        };
        seed += 1;
        r.push_sampled("sample16/posit16/fma", sample_n(2_000_000), seed, &gen3, &fe);
        for (op, opname) in [
            (BinOp::Add, "add"),
            (BinOp::Mul, "mul"),
            (BinOp::Div, "div"),
        ] {
            let eval = posit_bin(op, PositFormat::STD_POSIT16, &sp16);
            let se = |ins: &[u64]| {
                eval(
                    ins.first().copied().unwrap_or(0),
                    ins.get(1).copied().unwrap_or(0),
                )
            };
            seed += 1;
            r.push_sampled(
                &format!("sample16/std_posit16/{opname}"),
                sample_n(1_000_000),
                seed,
                &gen,
                &se,
            );
        }
    }

    // ----- interval enclosure (host-boundary checked) ---------------
    for (op, opname) in [(0u32, "add"), (1, "sub"), (2, "mul")] {
        let name = format!("sample/interval/{opname}");
        let gen = |rr: &mut XorShift| {
            let (x, y) = (rr.next(), rr.next());
            let (z, w) = (rr.next(), rr.next());
            vec![host::biased_f64_bits(x, y), host::biased_f64_bits(z, w)]
        };
        let eval = |ins: &[u64]| {
            let a = ins.first().copied().unwrap_or(0);
            let b = ins.get(1).copied().unwrap_or(0);
            (
                u64::from(host::interval_case_bits(a, b, op, f16)),
                1u64,
            )
        };
        seed += 1;
        r.push_sampled(&name, sample_n(200_000), seed, &gen, &eval);
    }

    Report {
        mode: if quick { "quick" } else { "full" }.to_string(),
        tasks: r.tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_filtered_task_runs_clean_on_a_tiny_slice() {
        let opts = Options {
            quick: true,
            filter: Some("exh8/posit8/sqrt".into()),
            threads: 1,
            progress: false,
        };
        let rep = run(&opts);
        assert_eq!(rep.tasks.len(), 1);
        let t = rep.tasks.first().expect("one task");
        assert_eq!(t.cases, 256);
    }

    #[test]
    fn biased_generators_are_deterministic() {
        let mut a = case_rng(1, 7);
        let mut b = case_rng(1, 7);
        assert_eq!(a.next(), b.next());
        let f16 = FloatSpec {
            exp_bits: 5,
            frac_bits: 10,
        };
        let mut r1 = case_rng(2, 3);
        let mut r2 = case_rng(2, 3);
        assert_eq!(biased_float_code(&mut r1, f16), biased_float_code(&mut r2, f16));
        let c = biased_posit_code(&mut r1, 16);
        assert!(c <= 0xFFFF);
    }

    #[test]
    fn minimizer_reaches_a_local_fixpoint() {
        // Fails iff the first operand has bit 3 set: minimizes to exactly
        // that bit.
        let eval = |ins: &[u64]| {
            let a = ins.first().copied().unwrap_or(0);
            ((a >> 3) & 1, 0)
        };
        let ex = minimize(&[0xFF, 0x12], &eval);
        assert_eq!(ex.minimized, vec![0x08, 0x00]);
        assert_eq!((ex.got, ex.want), (1, 0));
    }
}
