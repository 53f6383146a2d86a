//! The Carry Register File (CRF) — the hardware realisation of the
//! `Ltid+Prev+ModPC4` history table (paper Fig. 4, §IV-C).
//!
//! Each SM holds one CRF structured as a 16 × 224-bit register file:
//! `PC[3:0]` selects a row, and each row holds 7 carry-prediction bits for
//! each of the warp's 32 lanes. The CRF is read alongside the operands in
//! the register-read stage and written back (only by mispredicting threads)
//! in the write-back stage. Lanes of *different warps* map to the same bits
//! — that is exactly the shared-thread mechanism that lets threads
//! "prefetch" correct carries for each other.

use serde::{Deserialize, Serialize};

/// Rows in the CRF (2⁴ — indexed by `PC[3:0]`).
pub const CRF_ROWS: usize = 16;
/// Lanes per row (warp width).
pub const CRF_LANES: usize = 32;
/// Carry-prediction bits per lane (boundaries of an 8-slice adder).
pub const CRF_BITS_PER_LANE: usize = 7;

/// Per-SM Carry Register File.
///
/// ```
/// use st2_core::CarryRegisterFile;
/// let mut crf = CarryRegisterFile::new();
/// crf.write(0x23, 5, 0b0000101);
/// // PC 0x23 and PC 0x13 share row 3:
/// assert_eq!(crf.predict(0x13, 5), 0b0000101);
/// assert_eq!(crf.predict(0x13, 6), 0);
/// assert_eq!(CarryRegisterFile::BYTES, 448);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarryRegisterFile {
    rows: [[u8; CRF_LANES]; CRF_ROWS],
    reads: u64,
    writes: u64,
}

impl CarryRegisterFile {
    /// Total storage: 16 rows × 224 bits = 448 bytes per SM (the quantity
    /// behind the paper's 35 kB whole-chip figure for 80 SMs).
    pub const BYTES: usize = CRF_ROWS * CRF_LANES * CRF_BITS_PER_LANE / 8;

    /// Creates a zero-initialised CRF (cold predictions are "no carry").
    #[must_use]
    pub fn new() -> Self {
        CarryRegisterFile {
            rows: [[0; CRF_LANES]; CRF_ROWS],
            reads: 0,
            writes: 0,
        }
    }

    /// The row selected by a PC (`PC[3:0]`).
    #[must_use]
    pub fn row_of(pc: u32) -> usize {
        (pc & 0xF) as usize
    }

    /// Reads one lane's 7 prediction bits for the given PC. Counts one
    /// read access (rows are read as a whole in hardware; per-warp
    /// accounting is done by the caller issuing one `read_row`).
    #[must_use]
    pub fn predict(&mut self, pc: u32, lane: u32) -> u64 {
        self.reads += 1;
        u64::from(self.rows[Self::row_of(pc)][(lane & 31) as usize])
    }

    /// Reads the whole 224-bit row for a warp (one physical access).
    /// Returns the 7 bits for each of the 32 lanes.
    #[must_use]
    pub fn read_row(&mut self, pc: u32) -> [u8; CRF_LANES] {
        self.reads += 1;
        self.rows[Self::row_of(pc)]
    }

    /// Writes one lane's carry bits (bits above `CRF_BITS_PER_LANE` are
    /// discarded). Counts one write access.
    pub fn write(&mut self, pc: u32, lane: u32, carries: u64) {
        self.writes += 1;
        self.rows[Self::row_of(pc)][(lane & 31) as usize] = (carries & 0x7f) as u8;
    }

    /// Writes a whole warp's mispredicting lanes in one physical row write.
    /// `updates` pairs lanes with their new carry vectors.
    pub fn write_back(&mut self, pc: u32, updates: &[(u32, u64)]) {
        if updates.is_empty() {
            return;
        }
        self.writes += 1;
        let row = &mut self.rows[Self::row_of(pc)];
        for &(lane, carries) in updates {
            row[(lane & 31) as usize] = (carries & 0x7f) as u8;
        }
    }

    /// Read accesses performed so far (for CRF energy accounting).
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write accesses performed so far.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

impl Default for CarryRegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_matches_paper() {
        assert_eq!(CarryRegisterFile::BYTES, 448);
    }

    #[test]
    fn rows_alias_by_low_pc_bits() {
        assert_eq!(CarryRegisterFile::row_of(0x10), 0);
        assert_eq!(CarryRegisterFile::row_of(0x1f), 15);
        assert_eq!(CarryRegisterFile::row_of(0x123), 3);
    }

    #[test]
    fn warp_write_back_is_one_access() {
        let mut crf = CarryRegisterFile::new();
        crf.write_back(2, &[(0, 0x7f), (31, 0x55)]);
        assert_eq!(crf.writes(), 1);
        assert_eq!(crf.predict(2, 0), 0x7f);
        assert_eq!(crf.predict(2, 31), 0x55);
        crf.write_back(2, &[]);
        assert_eq!(crf.writes(), 1, "empty write-back consumes no port");
    }

    #[test]
    fn lane_bits_truncated_to_seven() {
        let mut crf = CarryRegisterFile::new();
        crf.write(0, 0, 0xfff);
        assert_eq!(crf.predict(0, 0), 0x7f);
    }

    #[test]
    fn reset_clears_everything() {
        let mut crf = CarryRegisterFile::new();
        crf.write(1, 1, 1);
        let _ = crf.predict(1, 1);
        crf.reset();
        assert_eq!(crf.reads(), 0);
        assert_eq!(crf.writes(), 0);
        assert_eq!(crf.predict(1, 1), 0);
    }
}
