//! Criterion benches for the kernel tiers: scalar vs table (LUT, row
//! bands when large enough) matmul over 8-bit format codes, and f32
//! serial vs parallel. `cargo bench -p nga-bench --bench kernels`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nga_kernels::{
    matmul8_parallel, matmul8_scalar, matmul_f32, matmul_f32_parallel, Format8, LutOp,
};

fn bench_matmul8(c: &mut Criterion) {
    let (m, k, n) = (32, 48, 32);
    for fmt in Format8::ALL {
        let op = LutOp::new(fmt);
        let a: Vec<u8> = (0..m * k).map(|i| (i * 37 + 11) as u8).collect();
        let b: Vec<u8> = (0..k * n).map(|i| (i * 91 + 3) as u8).collect();
        let mut out = vec![0u8; m * n];
        let group_name = format!("matmul8/{}", fmt.id());
        let mut g = c.benchmark_group(&group_name);
        g.bench_function("scalar", |bch| {
            bch.iter(|| matmul8_scalar(fmt, black_box(&a), black_box(&b), &mut out, m, k, n));
        });
        g.bench_function("parallel", |bch| {
            bch.iter(|| matmul8_parallel(&op, black_box(&a), black_box(&b), &mut out, m, k, n));
        });
        g.finish();
    }
}

fn bench_matmul_f32(c: &mut Criterion) {
    let (m, k, n) = (96, 128, 96);
    let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.001 - 0.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| 0.5 - i as f32 * 0.001).collect();
    let mut out = vec![0.0f32; m * n];
    let mut g = c.benchmark_group("matmul_f32");
    g.bench_function("serial", |bch| {
        bch.iter(|| matmul_f32(black_box(&a), black_box(&b), &mut out, m, k, n));
    });
    g.bench_function("parallel", |bch| {
        bch.iter(|| matmul_f32_parallel(black_box(&a), black_box(&b), &mut out, m, k, n));
    });
    g.finish();
}

criterion_group!(kernel_benches, bench_matmul8, bench_matmul_f32);
criterion_main!(kernel_benches);
