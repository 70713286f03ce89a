//! Fixture: LUT storage; code_bits = 2, so tables must have 16 entries.

pub struct Table {
    pub entries: [u8; 16],
}

pub struct WrongTable {
    pub entries: [u8; 64],
}
