//! [`KernelTier`]: the two execution tiers, the scalar reference and the
//! fused tables. [`ArithCtx`](crate::ArithCtx) matches on its tier to pick
//! a kernel.

enum_with_all! {
    /// An execution tier as a first-class value: the one way to pick a
    /// kernel.
    ///
    /// Construct one directly, then hand it to
    /// [`ArithCtx::with_tier`](crate::ArithCtx::with_tier): the context is
    /// where a tier becomes a kernel.
    ///
    /// ```
    /// use nga_kernels::KernelTier;
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
}

impl KernelTier {
    /// Stable tier name (used in benchmark output and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Parallel => "parallel",
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
