//! Shared test helpers for the kernels integration tests.

use nga_kernels::{Format8, StatusCounters};

/// Naive reference for every 8-bit matmul: per output element, in
/// ascending `k`, through the scalar event ops, recording every op. It
/// shares no loop with the kernels, so tier agreement with it checks the
/// kernels' one row worker rather than the worker against itself.
pub fn naive_matmul8(
    fmt: Format8,
    a: &[u8],
    b: &[u8],
    m: usize,
    k: usize,
    n: usize,
) -> (Vec<u8>, StatusCounters) {
    let mut counters = StatusCounters::new();
    let mut out = vec![0u8; m * n];
    for (idx, o) in out.iter_mut().enumerate() {
        let (i, j) = (idx / n, idx % n);
        for kk in 0..k {
            let (p, mul_ev) = fmt.mul_scalar_events(a[i * k + kk], b[kk * n + j]);
            counters.record(mul_ev);
            let (acc, add_ev) = fmt.add_scalar_events(*o, p);
            counters.record(add_ev);
            *o = acc;
        }
    }
    (out, counters)
}
