//! Kernel-tier characterization: ops/s for the scalar and the parallel
//! (table lookups, in row bands when the output is large enough) matmul
//! kernels over every 8-bit format, plus the f32 serial vs parallel
//! tensor layer: one matmul, and `conv2d_f32` against `im2col` +
//! `matmul_f32` on every distinct conv shape of ResNet20.
//!
//! The status path is measured too: `ArithCtx::matmul8` (codes plus
//! event counters) per format on each tier, and `ArithCtx::mul`/`add`
//! in ns per op on each tier against the status-free `LutOp` lookup.
//!
//! The ProxSim int8 path is measured as `QuantizedNetwork::forward`
//! GMAC/s: whole kws_mini and resnet_mini inferences at the edge
//! workload's sizes, and one single-conv network per distinct conv shape
//! of resnet_mini and ResNet20, each with the Mitchell and the exact
//! multiplier.
//!
//! The `micro` section times the software throughput of each arithmetic
//! system in ns per iteration: the §V and §II-D ablations (posit decode
//! in two's complement against a sign-magnitude re-encode, Wallace 3:2
//! against ALM 6:3 compression, quire against per-step rounding), posit16
//! ops, the soft IEEE formats, Q8.8 fixed point, the approximate
//! multipliers and bit-heap compression, and then one `Network::step` of
//! kws_mini, pre-trained (with the subnormal momentum §V's subnormal row
//! is about) and fresh.
//!
//! Every case runs through one timing loop, [`time_call`]. Prints
//! markdown tables by default; `--json` additionally writes
//! `BENCH_kernels.json` (machine-readable, checked into the repo so the
//! README's Performance section has provenance).
//!
//! Environment: `NGA_BENCH_MS` sets the per-case measurement window
//! (default 300 ms), `NGA_THREADS` caps the parallel tier's workers.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a benchmark times its cases and reads its flags and window"
)]

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use nga_approx::ApproxMultiplier;
use nga_bench::{banner, print_table};
use nga_bitheap::{compress::compress, BitHeap, Netlist, Strategy};
use nga_core::{Posit, PositFormat, Quire};
use nga_fixed::{Fixed, FixedFormat, OverflowMode, RoundingMode};
use nga_kernels::{
    conv2d_f32, im2col, matmul8_parallel, matmul8_scalar, matmul_f32, matmul_f32_parallel,
    num_threads, ArithCtx, Format8, KernelTier, LutOp,
};
use nga_nn::data::Dataset;
use nga_nn::layers::{Conv2d, Layer, Network};
use nga_nn::models::{kws_mini, resnet20, resnet_mini};
use nga_nn::quant::QuantizedNetwork;
use nga_nn::train::{softmax_xent, train_float, TrainConfig};
use nga_nn::Tensor;
use nga_softfloat::{FloatFormat, SoftFloat, SubnormalMode};

/// The per-case measurement window in ms: `NGA_BENCH_MS`, default 300,
/// at least 10.
fn window_ms() -> u64 {
    std::env::var("NGA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300)
        .max(10)
}

/// The CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Times `f` repeatedly inside the measurement window; returns the best
/// observed seconds per call.
fn time_call<F: FnMut()>(mut f: F) -> f64 {
    let window = std::time::Duration::from_millis(window_ms());
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
    let parallel = time_call(|| matmul8_parallel(&op, &a, &b, &mut out, m, k, n));
    black_box(&out);
    Row {
        label: format!("matmul8[{}] {m}x{k}x{n}", fmt.id()),
        macs: (m * k * n) as u64,
        scalar,
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
            black_box(ctx.matmul8(fmt, &a, &b, &mut out, m, k, n));
        })
    };
    Row {
        label: format!("ctx.matmul8[{}] {m}x{k}x{n}", fmt.id()),
        macs: (m * k * n) as u64,
        scalar: time_tier(KernelTier::Scalar),
        parallel: time_tier(KernelTier::Parallel),
    }
}

/// Nanoseconds per `ArithCtx::mul`/`add` on each tier, and per status-free
/// `LutOp` lookup (the ceiling).
struct ScalarRow {
    fmt: Format8,
    /// `[scalar, parallel, lut]`.
    ns: [f64; 3],
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
                black_box(ctx.mul(fmt, a, b));
                black_box(ctx.add(fmt, a, b));
            }
        }))
    };
    let op = LutOp::new(fmt);
    let lut = per_op(time_call(|| {
        for &(a, b) in &pairs {
            black_box(op.mul(a, b));
            black_box(op.add(a, b));
        }
    }));
    ScalarRow {
        fmt,
        ns: [
            time_tier(KernelTier::Scalar),
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
    black_box(&out);
    Row {
        label: format!("matmul_f32 {m}x{k}x{n}"),
        macs: (m * k * n) as u64,
        scalar: serial,
        parallel,
    }
}

/// Every distinct conv of ResNet20 as `(ch, h, w, oc, k, stride, pad)`:
/// the stem, each stage's 3×3 conv, the two stride-2 3×3 convs that open
/// stages 2 and 3, and their 1×1 stride-2 projections.
const CONV_F32_SHAPES: [(usize, usize, usize, usize, usize, usize, usize); 8] = [
    (3, 32, 32, 16, 3, 1, 1),
    (16, 32, 32, 16, 3, 1, 1),
    (16, 32, 32, 32, 3, 2, 1),
    (16, 32, 32, 32, 1, 2, 0),
    (32, 16, 16, 32, 3, 1, 1),
    (32, 16, 16, 64, 3, 2, 1),
    (32, 16, 16, 64, 1, 2, 0),
    (64, 8, 8, 64, 3, 1, 1),
];

/// f32 conv throughput on one ResNet20 conv shape, in MAC/s.
struct ConvRow {
    label: String,
    macs: u64,
    /// The reference: `im2col` then `matmul_f32` (one thread; the
    /// outputs start at 0.0 instead of the bias).
    im2col_matmul: f64,
    /// `conv2d_f32` itself, in pixel-block bands when `oc·oh·ow` reaches
    /// the banding threshold.
    conv: f64,
}

fn bench_conv_f32(
    (ch, h, w, oc, k, stride, pad): (usize, usize, usize, usize, usize, usize, usize),
) -> ConvRow {
    let kdim = ch * k * k;
    let input: Vec<f32> = (0..ch * h * w)
        .map(|i| ((i * 37) % 101) as f32 / 50.5 - 1.0)
        .collect();
    let weights: Vec<f32> = (0..oc * kdim)
        .map(|i| ((i * 53) % 89) as f32 / 440.0 - 0.1)
        .collect();
    let bias: Vec<f32> = (0..oc).map(|i| i as f32 * 0.01).collect();
    let (mut cols, mut out) = (Vec::new(), Vec::new());
    let (oh, ow) = im2col(&input, ch, h, w, k, k, stride, pad, &mut cols);
    let npix = oh * ow;
    let mut gemm_out = vec![0.0f32; oc * npix];
    let im2col_matmul = time_call(|| {
        im2col(&input, ch, h, w, k, k, stride, pad, &mut cols);
        matmul_f32(&weights, &cols, &mut gemm_out, oc, kdim, npix);
    });
    let conv = time_call(|| {
        conv2d_f32(
            &input, ch, h, w, &weights, &bias, oc, k, k, stride, pad, &mut out,
        );
    });
    black_box((&out, &gemm_out));
    let macs = (oc * kdim * npix) as u64;
    ConvRow {
        label: format!("conv2d_f32 {ch}x{h}x{w}->{oc} {k}x{k} s{stride} p{pad}"),
        macs,
        im2col_matmul: macs as f64 / im2col_matmul,
        conv: macs as f64 / conv,
    }
}

/// `QuantizedNetwork::forward` throughput of one network for the Mitchell
/// and the exact multiplier.
struct QRow {
    label: String,
    macs: u64,
    /// MAC/s with `[Mitchell, Exact]`.
    ops: [f64; 2],
}

const QMULTS: [ApproxMultiplier; 2] = [ApproxMultiplier::Mitchell, ApproxMultiplier::Exact];

/// A deterministic input of `shape` with values in `[-1, 1)`.
fn qinput(shape: &[usize], salt: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| ((i * 37 + salt * 11) % 97) as f32 / 48.5 - 1.0)
        .collect();
    Tensor::from_vec(shape, data)
}

fn bench_qnet(label: String, net: &Network, in_shape: &[usize]) -> QRow {
    let calib: Vec<Tensor> = (0..4).map(|s| qinput(in_shape, s)).collect();
    let q = QuantizedNetwork::from_float(net, &calib);
    let x = qinput(in_shape, 9);
    let macs = net.mac_count(in_shape);
    QRow {
        label,
        macs,
        ops: QMULTS.map(|m| {
            macs as f64
                / time_call(|| {
                    black_box(q.forward(&x, m));
                })
        }),
    }
}

/// Every conv of `layers` with the input shape it sees, in network order.
fn convs(layers: &[Layer], in_shape: &[usize], out: &mut Vec<(Conv2d, Vec<usize>)>) -> Vec<usize> {
    let mut shape = in_shape.to_vec();
    for l in layers {
        match l {
            Layer::Conv2d(c) => out.push((c.clone(), shape.clone())),
            Layer::Residual(r) => {
                convs(&r.shortcut, &shape, out);
                shape = convs(&r.main, &shape, out);
                continue;
            }
            _ => {}
        }
        shape = l.macs(&shape).1;
    }
    shape
}

/// Whole-model rows, then one row per distinct conv shape.
fn bench_qforward() -> Vec<QRow> {
    let mut rows = vec![
        bench_qnet(
            "qforward kws_mini".into(),
            &kws_mini(24, 10, 16, 1),
            &[1, 24, 10],
        ),
        bench_qnet(
            "qforward resnet_mini".into(),
            &resnet_mini(6, 10, 1),
            &[3, 12, 12],
        ),
    ];
    let mut seen = Vec::new();
    for (net, shape) in [
        (resnet_mini(6, 10, 1), [3, 12, 12]),
        (resnet20(10, 1), [3, 32, 32]),
    ] {
        let mut found = Vec::new();
        convs(&net.layers, &shape, &mut found);
        for (c, in_shape) in found {
            let label = format!(
                "qconv {:?} s{} p{} on {}x{}",
                c.weights.shape(),
                c.stride,
                c.pad,
                in_shape[1],
                in_shape[2]
            );
            if !seen.contains(&label) {
                let one = Network {
                    layers: vec![Layer::Conv2d(c)],
                };
                rows.push(bench_qnet(label.clone(), &one, &in_shape));
                seen.push(label);
            }
        }
    }
    rows
}

/// One `micro` case: its name and the closure [`time_call`] runs.
type Micro = (String, Box<dyn Fn()>);

/// A `micro` case whose result goes through `black_box`, so the work
/// producing it cannot be optimised away.
fn case<R>(name: impl Into<String>, f: impl Fn() -> R + 'static) -> Micro {
    (
        name.into(),
        Box::new(move || {
            black_box(f());
        }),
    )
}

/// A case's fixed inputs, alive for the whole run.
fn inputs<T>(it: impl Iterator<Item = T>) -> &'static [T] {
    Vec::leak(it.collect())
}

const P16: PositFormat = PositFormat::POSIT16;

/// Two's-complement decode of a posit16 (es = 1) code as it stands, with
/// no negation: a negative code's regime and exponent read inverted, and
/// its raw fraction `f` sits under a sign-embedded hidden bit of −2, so
/// the significand is `-2 + f` where a positive code's is `1 + f` (the
/// 8-bit `decode_signed` of nga-hwmodel's Yonemoto multiplier, at es = 1).
/// When the positive twin's exponent and fraction are all zero, the
/// inverted regime reads one run deeper and the missing exponent bit
/// reads 1, which the −2 absorbs: `-2·2^(2(k-1)+1) = -2^(2k)`.
fn decode_twos_complement(bits: u16) -> f64 {
    match bits {
        0 => return 0.0,
        0x8000 => return f64::NAN,
        _ => {}
    }
    let neg = bits >> 15 == 1;
    // The 15 bits after the sign, left-aligned.
    let body = bits << 1;
    let probe = if neg { !body } else { body };
    let run = if probe >> 15 == 1 {
        probe.leading_ones()
    } else {
        probe.leading_zeros()
    }
    .min(15);
    let k = if probe >> 15 == 1 {
        run as i32 - 1
    } else {
        -(run as i32)
    };
    // Regime run plus terminator; what follows is exponent, then fraction.
    let used = (run + 1).min(15);
    let rest = body << used;
    let e = i32::from(rest >> 15 == 1) ^ i32::from(neg);
    let frac_len = (15 - used).saturating_sub(1);
    let frac = if frac_len == 0 {
        0
    } else {
        i32::from((rest << 1) >> (16 - frac_len))
    };
    let sig = if neg {
        frac - (2 << frac_len)
    } else {
        frac + (1 << frac_len)
    };
    f64::from(sig) * f64::from(2 * k + e - frac_len as i32).exp2()
}

/// Sign-magnitude decode: negate first (a full two's-complement
/// carry-propagate on the encoding), decode the positive twin with
/// [`decode_twos_complement`], negate the value back — the "familiar bit
/// parcels" detour of §V. On a positive code the direct decoder does no
/// negation, so the pair differs only by the two negates.
fn decode_sign_magnitude(bits: u16) -> f64 {
    let neg = bits >> 15 == 1;
    let v = decode_twos_complement(if neg { bits.wrapping_neg() } else { bits });
    if neg {
        -v
    } else {
        v
    }
}

/// `Σ v[i]·v[i+1]` accumulated exactly in a quire, rounded once.
fn quire_dot(v: &[Posit]) -> Posit {
    let mut q = Quire::new(P16);
    for w in v.windows(2) {
        q.add_product(black_box(w[0]), black_box(w[1]));
    }
    q.to_posit()
}

/// The same sum, rounded after every multiply and every add.
fn rounded_dot(v: &[Posit]) -> Posit {
    v.windows(2).fold(Posit::zero(P16), |acc, w| {
        acc.add(black_box(w[0]).mul(black_box(w[1])))
    })
}

/// ALMs after compressing a heap built by `build` with `strategy`.
fn compress_heap(strategy: Strategy, build: impl Fn(&mut Netlist) -> BitHeap) -> u32 {
    let mut net = Netlist::new();
    let heap = build(&mut net);
    compress(&mut net, &heap, strategy).stats.cost.alms
}

/// Every `micro` case, in table order: the §V and §II-D ablations, then
/// the software throughput of each arithmetic system.
fn micro_cases() -> Vec<Micro> {
    let codes = inputs((1..1024u64).map(|i| (i * 63) & 0xFFFF));
    let dot = inputs((0..128u64).map(|i| Posit::from_bits((i * 509) & 0x7FFF, P16)));
    let p16 = inputs(
        (0..256u64)
            .map(|i| Posit::from_bits((i * 257) & 0xFFFF, P16))
            .filter(|p| !p.is_nar()),
    );
    let q8_8 = FixedFormat::signed(8, 8).expect("Q8.8 is a valid format");
    let q8_4 = FixedFormat::signed(8, 4).expect("Q8.4 is a valid format");
    let fixed = inputs(
        (0..256i128).map(|i| Fixed::from_raw((i * 193) % 0x7FFF - 0x4000, q8_8).expect("in range")),
    );
    let mut cases = vec![
        case("ablations/posit_decode/twos_complement_direct", move || {
            codes
                .iter()
                .map(|&e| decode_twos_complement(black_box(e) as u16))
                .sum::<f64>()
        }),
        case(
            "ablations/posit_decode/sign_magnitude_reencode",
            move || {
                codes
                    .iter()
                    .map(|&e| decode_sign_magnitude(black_box(e) as u16))
                    .sum::<f64>()
            },
        ),
    ];
    // Wallace 3:2 against ALM 6:3 on an 8-term 6×6-bit dot-product heap.
    for strategy in [Strategy::GreedyWallace, Strategy::AlmSixThree] {
        cases.push(case(
            format!("ablations/compress_dot_product/{strategy:?}"),
            move || {
                compress_heap(strategy, |net| {
                    let pairs: Vec<_> = (0..8)
                        .map(|_| (net.add_inputs(6), net.add_inputs(6)))
                        .collect();
                    BitHeap::dot_product(net, &pairs)
                })
            },
        ));
    }
    cases.extend([
        case("ablations/dot_product/quire_exact", move || quire_dot(dot)),
        case("ablations/dot_product/rounded_each_step", move || {
            rounded_dot(dot)
        }),
        case("posit16/mul_add_chain", move || rounded_dot(p16)),
        case("posit16/div_chain", move || {
            let nonzero = p16.iter().filter(|p| !p.is_zero());
            nonzero.fold(Posit::one(P16), |acc, &p| acc.div(black_box(p)))
        }),
        case("posit16/sqrt_sweep", move || {
            p16.iter().fold(0u64, |acc, p| acc ^ p.abs().sqrt().bits())
        }),
        case("posit16/decode_encode_round_trip", move || {
            p16.iter().fold(0u64, |acc, &p| {
                acc ^ Posit::from_f64(black_box(p).to_f64(), P16).bits()
            })
        }),
        // §V: a posit compare is the integer compare.
        case("posit16/compare_is_integer_compare", move || {
            p16.windows(2)
                .filter(|w| black_box(w[0]) < black_box(w[1]))
                .count()
        }),
        case("posit16/quire_dot_product_255", move || quire_dot(p16)),
    ]);
    // binary16 against bfloat16, fp19 and binary16 flushing subnormals
    // (the "normals only" hardware §V says posits should be compared
    // against).
    for (name, fmt) in [
        ("binary16", FloatFormat::BINARY16),
        (
            "binary16_ftz",
            FloatFormat::BINARY16.with_subnormal_mode(SubnormalMode::FlushToZero),
        ),
        ("bfloat16", FloatFormat::BFLOAT16),
        ("fp19", FloatFormat::FP19),
    ] {
        let v = inputs(
            (0..256u64)
                .map(|i| SoftFloat::from_bits((i * 193) & fmt.bits_mask() & 0x7FFF, fmt))
                .filter(|f| !f.is_nan()),
        );
        cases.push(case(format!("softfloat/{name}/mul_add_chain"), move || {
            v.windows(2).fold(SoftFloat::zero(fmt), |acc, w| {
                acc.add(black_box(w[0]).mul(black_box(w[1])))
            })
        }));
        cases.push(case(format!("softfloat/{name}/fma_chain"), move || {
            v.windows(2).fold(SoftFloat::zero(fmt), |acc, w| {
                black_box(w[0]).fma(black_box(w[1]), acc)
            })
        }));
    }
    // Q8.8, the baseline §V calls "the simplest and fastest format".
    cases.extend([
        case("fixed_q8_8/mac_chain_exact", move || {
            let products = fixed.windows(2).map(|w| {
                let p = black_box(w[0]).mul_exact(&black_box(w[1]));
                p.expect("a Q8.8 product fits").raw()
            });
            products.sum::<i128>()
        }),
        case("fixed_q8_8/saturating_add_chain", move || {
            fixed.iter().fold(Fixed::zero(q8_8), |acc, &x| {
                acc.checked_add(black_box(x)).expect("same format")
            })
        }),
        case("fixed_q8_8/requantize_nearest_even", move || {
            fixed.iter().fold(0i128, |acc, x| {
                let q = x.convert(q8_4, RoundingMode::NearestEven, OverflowMode::Saturate);
                acc ^ q.expect("saturating").raw()
            })
        }),
    ]);
    // Behavioural multiplier simulation, what bounds ProxSim-style
    // retraining: all 65,536 operand pairs.
    for m in [
        ApproxMultiplier::Exact,
        ApproxMultiplier::DropLsb,
        ApproxMultiplier::Mitchell,
        ApproxMultiplier::Drum4,
        ApproxMultiplier::Trunc8,
    ] {
        cases.push(case(
            format!("approx_mult/{}/64k_products", m.id()),
            move || {
                let mut acc = 0u32;
                for a in 0..=255u8 {
                    for b in 0..=255u8 {
                        acc = acc.wrapping_add(u32::from(m.multiply(black_box(a), black_box(b))));
                    }
                }
                acc
            },
        ));
    }
    // Generator run time, the "reasonable run-time" constraint §II-C
    // places on cost/error evaluation.
    for w in [8, 12, 16] {
        for strategy in [Strategy::GreedyWallace, Strategy::AlmSixThree] {
            cases.push(case(
                format!("bitheap_compress/{w}x{w}/{strategy:?}"),
                move || {
                    compress_heap(strategy, |net| {
                        let (a, b) = (net.add_inputs(w), net.add_inputs(w));
                        BitHeap::multiplier(net, &a, &b)
                    })
                },
            ));
        }
    }
    // One SGD step of kws_mini, pre-trained as the `retrain` workload's
    // set-up does and fresh.
    cases.extend([
        sgd_step_case("nn/sgd_step/kws_mini_pretrained", pretrained_kws_mini()),
        sgd_step_case("nn/sgd_step/kws_mini_fresh", fresh_kws_mini()),
    ]);
    cases
}

/// The keyword task of Fig. 5 and of the `retrain` workload: its training
/// half and a fresh kws_mini for it.
fn kws_task() -> (Dataset, Network) {
    let (train, _) = Dataset::synth_speech_noisy(16, 30, 24, 10, 0.7, 23).split_alternating();
    (train, kws_mini(24, 10, 16, 23))
}

/// kws_mini after the `retrain` workload's 35 epochs of float training,
/// which leave ~44 % of its momentum entries subnormal.
fn pretrained_kws_mini() -> Network {
    let (train, mut net) = kws_task();
    let cfg = TrainConfig {
        lr: 0.01,
        momentum: 0.9,
        epochs: 35,
        seed: 5,
    };
    train_float(&mut net, &train, &cfg);
    net
}

/// A fresh kws_mini with the gradient of one sample, so its first step
/// leaves every momentum entry normal or zero.
fn fresh_kws_mini() -> Network {
    let (train, mut net) = kws_task();
    let (x, label) = train.sample(0);
    let logits = net.forward_train(&x);
    net.backward(&softmax_xent(&logits, label).1)
        .expect("forward_train filled the caches");
    net
}

/// `Network::step` on `net` at momentum 1: with the gradient zeroed by
/// the previous step, every velocity stays as it is, so each call sees
/// the same mix of normal and subnormal momentum entries.
fn sgd_step_case(name: &str, net: Network) -> Micro {
    let net = RefCell::new(net);
    case(name, move || net.borrow_mut().step(0.004, 1.0))
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
    banner("Kernel tiers — scalar vs parallel (table lookups in row bands)");
    println!(
        "worker threads: {}, nproc: {}, window: {} ms\n",
        num_threads(),
        nproc(),
        window_ms(),
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
    let conv_rows: Vec<ConvRow> = CONV_F32_SHAPES.into_iter().map(bench_conv_f32).collect();
    let scalar_rows: Vec<ScalarRow> = Format8::ALL.into_iter().map(bench_ctx_scalar).collect();
    let qrows = bench_qforward();
    let micro: Vec<(String, f64)> = micro_cases()
        .into_iter()
        .map(|(name, f)| (name, time_call(f) * 1e9))
        .collect();

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{}ops/s", fmt_ops(r.ops(r.scalar))),
                format!("{}ops/s", fmt_ops(r.ops(r.parallel))),
                format!("{:.1}x", r.scalar / r.parallel),
            ]
        })
        .collect();
    print_table(
        &["kernel", "scalar", "parallel", "parallel speedup"],
        &table_rows,
    );

    println!();
    print_table(
        &["f32 conv", "MACs", "im2col+matmul_f32", "conv2d_f32"],
        &conv_rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    r.macs.to_string(),
                    format!("{}MAC/s", fmt_ops(r.im2col_matmul)),
                    format!("{}MAC/s", fmt_ops(r.conv)),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!();
    print_table(
        &[
            "ctx.mul + ctx.add",
            "scalar ns/op",
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

    println!();
    print_table(
        &["QuantizedNetwork::forward", "MACs", "Mitchell", "Exact"],
        &qrows
            .iter()
            .map(|r| {
                let mut cells = vec![r.label.clone(), r.macs.to_string()];
                cells.extend(r.ops.iter().map(|&o| format!("{}MAC/s", fmt_ops(o))));
                cells
            })
            .collect::<Vec<_>>(),
    );

    println!();
    print_table(
        &["micro", "ns/iter"],
        &micro
            .iter()
            .map(|(name, ns)| vec![name.clone(), format!("{ns:.1}")])
            .collect::<Vec<_>>(),
    );

    if json {
        let mut entries: Vec<String> = Vec::new();
        for r in &rows {
            entries.push(format!(
                concat!(
                    "    {{\"kernel\": \"{}\", \"macs_per_call\": {}, ",
                    "\"scalar_ops_per_s\": {:.0}, \"parallel_ops_per_s\": {:.0}, ",
                    "\"parallel_speedup\": {:.2}}}"
                ),
                r.label,
                r.macs,
                r.ops(r.scalar),
                r.ops(r.parallel),
                r.scalar / r.parallel,
            ));
        }
        let conv_entries: Vec<String> = conv_rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"kernel\": \"{}\", \"macs_per_call\": {}, ",
                        "\"im2col_matmul_gmac_per_s\": {:.3}, \"conv2d_gmac_per_s\": {:.3}}}"
                    ),
                    r.label,
                    r.macs,
                    r.im2col_matmul / 1e9,
                    r.conv / 1e9,
                )
            })
            .collect();
        let scalar_entries: Vec<String> = scalar_rows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"kernel\": \"ctx.mul+add[{}]\", ",
                        "\"scalar_ns_per_op\": {:.2}, \"parallel_ns_per_op\": {:.2}, ",
                        "\"lut_ns_per_op\": {:.2}}}"
                    ),
                    r.fmt.id(),
                    r.ns[0],
                    r.ns[1],
                    r.ns[2],
                )
            })
            .collect();
        let q_entries: Vec<String> = qrows
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"kernel\": \"{}\", \"macs_per_call\": {}, ",
                        "\"mitchell_gmac_per_s\": {:.3}, \"exact_gmac_per_s\": {:.3}}}"
                    ),
                    r.label,
                    r.macs,
                    r.ops[0] / 1e9,
                    r.ops[1] / 1e9,
                )
            })
            .collect();
        let micro_entries: Vec<String> = micro
            .iter()
            .map(|(name, ns)| format!("    {{\"case\": \"{name}\", \"ns_per_iter\": {ns:.1}}}"))
            .collect();
        let doc = format!(
            concat!(
                "{{\n  \"bench\": \"kernels\",\n  \"nproc\": {},\n  \"threads\": {},\n",
                "  \"window_ms\": {},\n",
                "  \"cases\": [\n{}\n  ],\n  \"conv_f32\": [\n{}\n  ],\n",
                "  \"ctx_scalar\": [\n{}\n  ],\n",
                "  \"qforward\": [\n{}\n  ],\n",
                "  \"micro\": [\n{}\n  ]\n}}\n"
            ),
            nproc(),
            num_threads(),
            window_ms(),
            entries.join(",\n"),
            conv_entries.join(",\n"),
            scalar_entries.join(",\n"),
            q_entries.join(",\n"),
            micro_entries.join(",\n")
        );
        std::fs::write("BENCH_kernels.json", &doc).expect("write BENCH_kernels.json");
        println!("\nwrote BENCH_kernels.json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct half of the §V decode ablation gives `Posit::to_f64`'s
    /// value bit for bit for every posit16 code, NaR included.
    #[test]
    fn twos_complement_decode_matches_to_f64() {
        for bits in 0..=0xFFFFu16 {
            let want = Posit::from_bits(u64::from(bits), P16).to_f64();
            let got = decode_twos_complement(bits);
            if want.is_nan() {
                assert!(got.is_nan(), "{bits:#06x}: {got}");
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{bits:#06x}: {got} vs {want}"
                );
            }
        }
    }

    /// The two halves of the §V decode ablation compute the same value
    /// for every posit16 code but NaR, so the pair times only the
    /// re-encode's extra work.
    #[test]
    fn sign_magnitude_decode_matches_direct_decode() {
        for bits in 0..=0xFFFFu64 {
            let direct = Posit::from_bits(bits, P16);
            if direct.is_nar() {
                continue;
            }
            assert_eq!(
                decode_sign_magnitude(bits as u16).to_bits(),
                direct.to_f64().to_bits(),
                "{bits:#06x}"
            );
        }
    }
}
