//! Fixture: a tier enum whose `ALL` omits a variant.

pub enum KernelTier {
    Good,
    Rogue,
}

impl KernelTier {
    pub const ALL: [Self; 1] = [Self::Good];
}
