//! [`KernelTier`]: the two execution tiers, the scalar reference and the
//! fused tables, dispatched by `match`.

use crate::format8::Format8;
use crate::table::LutOp;
use crate::tensor;

/// An execution tier as a first-class value: the one way to pick a
/// kernel.
///
/// Construct one directly or [`parse`](Self::parse) it from a CLI
/// argument, then hand it to
/// [`ArithCtx::with_tier`](crate::ArithCtx::with_tier) or call its
/// [`matmul8`](Self::matmul8) / [`matmul_f32`](Self::matmul_f32)
/// directly.
///
/// ```
/// use nga_kernels::KernelTier;
/// assert_eq!(KernelTier::parse("scalar"), Some(KernelTier::Scalar));
/// assert_eq!(KernelTier::Parallel.name(), "parallel");
/// assert_eq!(KernelTier::default(), KernelTier::Parallel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Decode/compute/encode through the reference scalar ops, serial.
    Scalar,
    /// One fused value+event table lookup per multiply/add, in
    /// scoped-thread row bands once the output is large enough.
    Parallel,
}

impl KernelTier {
    /// All tiers, in escalation order.
    pub const ALL: [Self; 2] = [Self::Scalar, Self::Parallel];

    /// Stable tier name (used in benchmark output and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Parallel => "parallel",
        }
    }

    /// Parses a tier name (`"scalar"` / `"parallel"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.name() == s)
    }

    /// `out = a · b` over 8-bit format codes on this tier (status-free;
    /// the codes are identical on every tier).
    #[expect(clippy::too_many_arguments, reason = "BLAS-style flat slices and dims")]
    pub fn matmul8(
        self,
        fmt: Format8,
        a: &[u8],
        b: &[u8],
        out: &mut [u8],
        m: usize,
        k: usize,
        n: usize,
    ) {
        match self {
            Self::Scalar => tensor::matmul8_scalar(fmt, a, b, out, m, k, n),
            Self::Parallel => tensor::matmul8_parallel(&LutOp::new(fmt), a, b, out, m, k, n),
        }
    }

    /// `out = a · b` over f32 (`a` m×k, `b` k×n, row-major) on this tier:
    /// serial on `Scalar`, row-banded on `Parallel`, with bit-identical
    /// results.
    pub fn matmul_f32(self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        match self {
            Self::Scalar => tensor::matmul_f32(a, b, out, m, k, n),
            Self::Parallel => tensor::matmul_f32_parallel(a, b, out, m, k, n),
        }
    }
}

impl Default for KernelTier {
    /// [`Parallel`](Self::Parallel), the fused tables.
    fn default() -> Self {
        Self::Parallel
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_agree_on_both_domains() {
        let (m, k, n) = (4, 6, 5);
        let af: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.01 - 0.1).collect();
        let bf: Vec<f32> = (0..k * n).map(|i| 0.2 - i as f32 * 0.01).collect();
        let a8: Vec<u8> = (0..m * k).map(|i| (i * 53 + 7) as u8).collect();
        let b8: Vec<u8> = (0..k * n).map(|i| (i * 29 + 1) as u8).collect();
        let mut f32_ref = vec![0.0; m * n];
        let mut u8_ref = vec![0u8; m * n];
        KernelTier::Scalar.matmul_f32(&af, &bf, &mut f32_ref, m, k, n);
        KernelTier::Scalar.matmul8(Format8::Posit8, &a8, &b8, &mut u8_ref, m, k, n);
        let tier = KernelTier::Parallel;
        let mut f = vec![0.0; m * n];
        let mut u = vec![0u8; m * n];
        tier.matmul_f32(&af, &bf, &mut f, m, k, n);
        tier.matmul8(Format8::Posit8, &a8, &b8, &mut u, m, k, n);
        assert_eq!(f, f32_ref, "{tier} f32");
        assert_eq!(u, u8_ref, "{tier} u8");
    }
}
