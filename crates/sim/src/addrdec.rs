//! Address-decode unit: routes a global-memory line address to one of
//! `l2_partitions` address-sliced L2 partitions.
//!
//! The decoder XOR-folds the *line index* (`addr >> log2(line)`) into
//! `log2(partitions)` bits. Folding — rather than taking the low bits
//! directly — is what real memory-partition hashes do (GPGPU-Sim's
//! `addrdec`, the IPOLY/bitwise-XOR schemes in the Accel-Sim modeling
//! literature): a plain modulo maps any stride that is a multiple of
//! the partition count onto a single partition, serialising exactly the
//! power-of-two strides GPU kernels love. XOR-folding mixes every bit
//! of the line index into the partition choice, so strided and
//! row-major sweeps spread near-uniformly (see the module tests).
//!
//! With one partition the decoder is the constant function `0`: a
//! single L2 with no crossbar.

/// Maps line addresses to partition indices. Cheap to copy — each SM
/// core carries one and decodes every queued request once, at issue:
/// the partition it picks is charged the MSHR credit and later serves
/// the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressDecoder {
    line_shift: u32,
    bits: u32,
    mask: u64,
}

impl AddressDecoder {
    /// Builds a decoder for `line`-byte cache lines and `partitions`
    /// L2 partitions.
    ///
    /// # Panics
    ///
    /// Panics unless both `line` and `partitions` are positive powers
    /// of two ([`crate::config::GpuConfig::validate`] enforces this
    /// before any decoder is built).
    #[must_use]
    pub fn new(line: u64, partitions: u32) -> Self {
        assert!(
            line > 0 && line.is_power_of_two(),
            "line size must be a positive power of two, got {line}"
        );
        assert!(
            partitions > 0 && partitions.is_power_of_two(),
            "partition count must be a positive power of two, got {partitions}"
        );
        AddressDecoder {
            line_shift: line.trailing_zeros(),
            bits: partitions.trailing_zeros(),
            mask: u64::from(partitions) - 1,
        }
    }

    /// The partition count this decoder routes across.
    #[must_use]
    pub fn partitions(&self) -> u32 {
        self.mask as u32 + 1
    }

    /// The partition serving the line containing `addr`: the XOR of all
    /// `log2(partitions)`-bit chunks of the line index.
    #[must_use]
    pub fn decode(&self, addr: u64) -> usize {
        if self.bits == 0 {
            return 0;
        }
        let mut x = addr >> self.line_shift;
        let mut h = 0u64;
        while x != 0 {
            h ^= x & self.mask;
            x >>= self.bits;
        }
        h as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: u64 = 128;

    /// Counts how many of the `addrs` land on each partition.
    fn spread(partitions: u32, addrs: impl Iterator<Item = u64>) -> Vec<u64> {
        let dec = AddressDecoder::new(LINE, partitions);
        let mut counts = vec![0u64; partitions as usize];
        for a in addrs {
            counts[dec.decode(a)] += 1;
        }
        counts
    }

    /// Every partition must see at least half its fair share and no
    /// partition more than double — "near-uniform", far from the
    /// all-to-one pathology a modulo decoder exhibits.
    fn assert_uniform(counts: &[u64], what: &str) {
        let total: u64 = counts.iter().sum();
        let fair = total / counts.len() as u64;
        for (p, &c) in counts.iter().enumerate() {
            assert!(
                c >= fair / 2 && c <= fair * 2,
                "{what}: partition {p} got {c} of {total} (fair share {fair}): {counts:?}"
            );
        }
    }

    #[test]
    fn single_partition_is_constant_zero() {
        let dec = AddressDecoder::new(LINE, 1);
        assert_eq!(dec.partitions(), 1);
        for a in [0u64, 1, LINE, 1 << 20, u64::MAX] {
            assert_eq!(dec.decode(a), 0);
        }
    }

    #[test]
    fn decode_stays_in_range_and_is_line_granular() {
        for parts in [2u32, 4, 8] {
            let dec = AddressDecoder::new(LINE, parts);
            for a in (0..4096u64).map(|i| i * 97) {
                let p = dec.decode(a);
                assert!(p < parts as usize);
                // Every byte of one line routes to the same partition.
                assert_eq!(p, dec.decode(a / LINE * LINE));
                assert_eq!(p, dec.decode(a / LINE * LINE + LINE - 1));
            }
        }
    }

    #[test]
    fn strided_sweeps_spread_uniformly() {
        // Power-of-two strides (in bytes): unit-line, multi-line, and —
        // the classic pathology — strides equal to and beyond the
        // partition count in lines.
        const N: u64 = 4096;
        for parts in [2u32, 4, 8] {
            for stride_lines in [1u64, 2, 4, 8, 32, 256] {
                let stride = stride_lines * LINE;
                let counts = spread(parts, (0..N).map(|i| i * stride));
                assert_uniform(&counts, &format!("{parts} parts, stride {stride}B"));
            }
            // Stride exactly `parts` lines: a low-bits modulo decoder
            // would send *every* access to partition 0.
            let stride = u64::from(parts) * LINE;
            let counts = spread(parts, (0..N).map(|i| i * stride));
            assert!(
                counts.iter().all(|&c| c > 0 && c < N),
                "{parts} parts: stride {stride}B collapsed onto one partition: {counts:?}"
            );
        }
    }

    #[test]
    fn row_major_walk_spreads_uniformly() {
        // A row-major image walk: 128 rows x 1024 4-byte elements with a
        // power-of-two pitch, touching each 128-byte line once per 32
        // elements — the access shape of the suite's stencil kernels.
        const ROWS: u64 = 128;
        const COLS: u64 = 1024;
        const PITCH: u64 = COLS * 4;
        for parts in [2u32, 4, 8] {
            let addrs = (0..ROWS).flat_map(|r| (0..COLS).map(move |c| r * PITCH + c * 4));
            let counts = spread(parts, addrs);
            assert_uniform(&counts, &format!("{parts} parts, row-major walk"));
        }
    }
}
