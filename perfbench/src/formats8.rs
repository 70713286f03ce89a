//! `formats8`: 8-bit arithmetic through the `ArithCtx` surface on the
//! default tier, for posit8, E4M3, E5M2 and Q4.4.
//!
//! One item is, per format, one `ctx.matmul8` at a dense-layer shape on
//! each side of the 16 384-output banding threshold plus a run of scalar
//! `ctx.mul`/`ctx.add` ops. This is the only workload that reaches the
//! status/event tables and `record_at`.

use std::time::Instant;

use nga_kernels::{ArithCtx, BinaryTable, Format8, KernelTier, LutOp, StatusCounters};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::{gmac, ratio};
use crate::trace::{TotalsExt, Tracer};
use crate::{median, Metrics, Size, Workload};

/// Span and counter names of one format, all `'static`.
#[derive(Debug, Clone, Copy)]
struct FmtNames {
    matmul: &'static str,
    ceil: &'static str,
    nar_nan: &'static str,
}

fn names(fmt: Format8) -> FmtNames {
    match fmt {
        Format8::Posit8 => FmtNames {
            matmul: "kernels.matmul8.posit8",
            ceil: "ceil.matmul8.posit8",
            nar_nan: "kernels.matmul8.posit8.nar_nan",
        },
        Format8::E4m3 => FmtNames {
            matmul: "kernels.matmul8.e4m3",
            ceil: "ceil.matmul8.e4m3",
            nar_nan: "kernels.matmul8.e4m3.nar_nan",
        },
        Format8::E5m2 => FmtNames {
            matmul: "kernels.matmul8.e5m2",
            ceil: "ceil.matmul8.e5m2",
            nar_nan: "kernels.matmul8.e5m2.nar_nan",
        },
        Format8::Fixed8 => FmtNames {
            matmul: "kernels.matmul8.fixed8_q4.4",
            ceil: "ceil.matmul8.fixed8_q4.4",
            nar_nan: "kernels.matmul8.fixed8_q4.4.nar_nan",
        },
    }
}

/// One matmul: operands, the Scalar-tier reference and a ceiling buffer.
#[derive(Debug)]
struct MatCase {
    m: usize,
    k: usize,
    n: usize,
    a: Vec<u8>,
    b: Vec<u8>,
    want: Vec<u8>,
    want_status: StatusCounters,
    ceil_out: Vec<u8>,
}

/// Everything one format runs per item.
#[derive(Debug)]
struct FmtCase {
    fmt: Format8,
    names: FmtNames,
    mats: Vec<MatCase>,
    sa: Vec<u8>,
    sb: Vec<u8>,
    want_mul: Vec<u8>,
    want_add: Vec<u8>,
    ceil_mul: Vec<u8>,
    ceil_add: Vec<u8>,
}

/// The workload state.
#[derive(Debug)]
pub struct Formats8 {
    cases: Vec<FmtCase>,
    want_total: StatusCounters,
}

/// Outputs of one item.
#[derive(Debug, Default)]
pub struct Out {
    mats: Vec<(Vec<u8>, StatusCounters)>,
    muls: Vec<Vec<u8>>,
    adds: Vec<Vec<u8>>,
    total: StatusCounters,
}

/// `(m, k, n)` of the two matmuls, below and above the 16 384-output
/// banding threshold, and the scalar operand pairs per format.
fn shapes(size: Size) -> ([(usize, usize, usize); 2], usize) {
    match size {
        Size::Full => ([(16, 8, 128), (32, 8, 520)], 7_200),
        Size::Tiny => ([(2, 4, 8), (128, 2, 128)], 64),
    }
}

/// Matmul operands: values uniform in [-1, 1) rounded into the format.
fn operands(rng: &mut StdRng, fmt: Format8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| fmt.encode(rng.gen_range(-1.0f64..1.0)))
        .collect()
}

/// Scalar operands: uniform over the format's finite codes.
fn finite_codes(rng: &mut StdRng, fmt: Format8, len: usize) -> Vec<u8> {
    let finite: Vec<u8> = (0..=255u8).filter(|&c| fmt.decode(c).is_finite()).collect();
    (0..len)
        .map(|_| finite[rng.gen_range(0..finite.len())])
        .collect()
}

fn scalar_ops(ctx: &mut ArithCtx, c: &FmtCase) -> (Vec<u8>, Vec<u8>) {
    let mul =
        c.sa.iter()
            .zip(&c.sb)
            .map(|(&a, &b)| ctx.mul(c.fmt, a, b))
            .collect();
    let add =
        c.sa.iter()
            .zip(&c.sb)
            .map(|(&a, &b)| ctx.add(c.fmt, a, b))
            .collect();
    (mul, add)
}

fn matmul(ctx: &mut ArithCtx, fmt: Format8, mc: &MatCase) -> (Vec<u8>, StatusCounters) {
    let mut out = vec![0u8; mc.m * mc.n];
    let s = ctx.matmul8(fmt, &mc.a, &mc.b, &mut out, mc.m, mc.k, mc.n);
    (out, s)
}

impl Formats8 {
    /// Draws operands from `seed`, builds the default tier's tables (their
    /// first use) and computes the Scalar-tier reference.
    #[must_use]
    pub fn setup(seed: u64, size: Size) -> Self {
        let (dims, pairs) = shapes(size);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = ArithCtx::new().with_tier(KernelTier::Scalar);
        let mut cases = Vec::new();
        for fmt in Format8::ALL {
            let mut mats = Vec::new();
            for (m, k, n) in dims {
                let mut mc = MatCase {
                    m,
                    k,
                    n,
                    a: operands(&mut rng, fmt, m * k),
                    b: operands(&mut rng, fmt, k * n),
                    want: Vec::new(),
                    want_status: StatusCounters::new(),
                    ceil_out: vec![0; m * n],
                };
                (mc.want, mc.want_status) = matmul(&mut reference, fmt, &mc);
                mats.push(mc);
            }
            let mut c = FmtCase {
                fmt,
                names: names(fmt),
                mats,
                sa: finite_codes(&mut rng, fmt, pairs),
                sb: finite_codes(&mut rng, fmt, pairs),
                want_mul: Vec::new(),
                want_add: Vec::new(),
                ceil_mul: vec![0; pairs],
                ceil_add: vec![0; pairs],
            };
            (c.want_mul, c.want_add) = scalar_ops(&mut reference, &c);
            cases.push(c);
        }
        let want_total = *reference.counters();
        // First use of the default tier's value and event tables.
        for fmt in Format8::ALL {
            std::hint::black_box(nga_kernels::StatusOp::new(fmt));
            std::hint::black_box(LutOp::new(fmt));
        }
        Self { cases, want_total }
    }

    fn macs_per_item(c: &FmtCase) -> f64 {
        c.mats.iter().map(|mc| (mc.m * mc.k * mc.n) as f64).sum()
    }
}

impl Workload for Formats8 {
    type Out = Out;

    fn run(&mut self, _i: u64) -> Out {
        let mut ctx = ArithCtx::new();
        let mut out = Out::default();
        for c in &self.cases {
            for mc in &c.mats {
                out.mats.push(matmul(&mut ctx, c.fmt, mc));
            }
            let (mul, add) = scalar_ops(&mut ctx, c);
            out.muls.push(mul);
            out.adds.push(add);
        }
        out.total = *ctx.counters();
        out
    }

    fn check(&self, _i: u64, out: &Out) -> bool {
        let mats = self.cases.iter().flat_map(|c| &c.mats);
        out.mats.len() == mats.clone().count()
            && mats
                .zip(&out.mats)
                .all(|(mc, (codes, s))| *codes == mc.want && *s == mc.want_status)
            && self
                .cases
                .iter()
                .zip(out.muls.iter().zip(&out.adds))
                .all(|(c, (mul, add))| *mul == c.want_mul && *add == c.want_add)
            && out.total == self.want_total
    }

    fn traced(&mut self, _i: u64, tr: &mut Tracer) -> Out {
        let mut ctx = ArithCtx::new();
        let mut out = Out::default();
        for c in &self.cases {
            for mc in &c.mats {
                let (codes, s) = tr.span(c.names.matmul, |_| matmul(&mut ctx, c.fmt, mc));
                tr.count(c.names.nar_nan, s.nar_nan() as f64);
                out.mats.push((codes, s));
            }
            let (mul, add) = tr.span("kernels.ctx_scalar", |_| scalar_ops(&mut ctx, c));
            out.muls.push(mul);
            out.adds.push(add);
        }
        out.total = *ctx.counters();
        out
    }

    fn probe(&mut self, _i: u64, tr: &mut Tracer) -> bool {
        // Same-run ceilings: the status-free table kernels on the same
        // inputs (`matmul8_parallel` bands like the default tier and falls
        // back to serial `matmul8` below the threshold).
        let mut ok = true;
        for c in &mut self.cases {
            let op = LutOp::new(c.fmt);
            for mc in &mut c.mats {
                tr.span(c.names.ceil, |_| {
                    nga_kernels::matmul8_parallel(
                        &op,
                        &mc.a,
                        &mc.b,
                        &mut mc.ceil_out,
                        mc.m,
                        mc.k,
                        mc.n,
                    );
                });
                ok &= mc.ceil_out == mc.want;
            }
            tr.span("ceil.ctx_scalar", |_| {
                for (j, (&a, &b)) in c.sa.iter().zip(&c.sb).enumerate() {
                    c.ceil_mul[j] = op.mul(a, b);
                }
                for (j, (&a, &b)) in c.sa.iter().zip(&c.sb).enumerate() {
                    c.ceil_add[j] = op.add(a, b);
                }
            });
            ok &= c.ceil_mul == c.want_mul && c.ceil_add == c.want_add;
        }
        ok
    }

    fn per_layer(&mut self, tr: &Tracer, items: u64) -> (Metrics, bool) {
        let t = tr.totals();
        let n = items.max(1) as f64;
        let mut m = Metrics::new();
        let mut ops = 0.0;
        for c in &self.cases {
            let ns = t.total_ns(c.names.matmul);
            let base = c.names.matmul;
            m.push((format!("{base}.us"), ns / 1e3 / n));
            m.push((
                format!("{base}.gmac_per_s"),
                gmac(Self::macs_per_item(c) * n, ns / 1e3),
            ));
            m.push((
                format!("{base}.ceiling_pct"),
                100.0 * ratio(t.total_ns(c.names.ceil), ns),
            ));
            m.push((c.names.nar_nan.into(), tr.counter(c.names.nar_nan) / n));
            ops += 2.0 * c.sa.len() as f64;
        }
        let scalar_ns = t.total_ns("kernels.ctx_scalar");
        m.push((
            "kernels.ctx_scalar.ns_per_op".into(),
            ratio(scalar_ns, ops * n),
        ));
        m.push((
            "kernels.ctx_scalar.ceiling_pct".into(),
            100.0 * ratio(t.total_ns("ceil.ctx_scalar"), scalar_ns),
        ));
        m.push(("kernels.lut_build_ms".into(), lut_build_ms()));
        (m, true)
    }
}

/// Median wall time of building the 16 tables `StatusOp::new` builds on
/// first use (value and event tables of mul and add, four formats), in
/// milliseconds.
fn lut_build_ms() -> f64 {
    median(
        (0..3)
            .map(|_| {
                let t = Instant::now();
                for fmt in Format8::ALL {
                    std::hint::black_box(BinaryTable::build(|a, b| fmt.mul_scalar_events(a, b).0));
                    std::hint::black_box(BinaryTable::build(|a, b| fmt.add_scalar_events(a, b).0));
                    std::hint::black_box(BinaryTable::build(|a, b| {
                        fmt.mul_scalar_events(a, b).1.bits()
                    }));
                    std::hint::black_box(BinaryTable::build(|a, b| {
                        fmt.add_scalar_events(a, b).1.bits()
                    }));
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}
