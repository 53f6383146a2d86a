//! Integer interval timelines: the typed rows the collector records at
//! every snapshot boundary and that [`crate::KernelProfile`] publishes.
//!
//! Each row holds the extensive integer sums of one interval. The
//! collector keeps the cumulative values at the last boundary as a row
//! of the same type and stores the field-wise difference
//! ([`IntervalRow::since`]), so rows are exact whichever driver path
//! produced them and merge by plain addition. A row type owns its
//! column layout: [`IntervalRow::FIELDS`] are the profile-JSON keys and
//! [`IntervalRow::COLUMNS`] the Chrome counter-lane names, both in field
//! order.

/// A typed interval row: an end `cycle` plus integer fields.
pub trait IntervalRow: Copy + Default {
    /// Field names in declaration order (the profile-JSON keys).
    const FIELDS: &'static [&'static str];
    /// Counter-lane names (`<lane>.<field>`), in field order.
    const COLUMNS: &'static [&'static str];
    /// Cycle at the end of the interval.
    fn cycle(&self) -> u64;
    /// Field values in [`IntervalRow::FIELDS`] order.
    fn values(&self) -> Vec<u64>;
    /// A row from an end cycle and values in field order (missing
    /// trailing values read as 0).
    fn from_values(cycle: u64, values: &[u64]) -> Self;
    /// The field-wise difference `self - prev`, keeping `self.cycle`:
    /// one interval's sums from two cumulative rows.
    #[must_use]
    fn since(&self, prev: &Self) -> Self;
}

/// Declares an [`IntervalRow`] struct from one field list: the struct,
/// its lane names and its field-wise arithmetic cannot drift apart.
macro_rules! interval_row {
    (
        $(#[$meta:meta])*
        $name:ident, $lane:literal {
            $( $(#[$fmeta:meta])* $field:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            /// Cycle at the end of the interval.
            pub cycle: u64,
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl IntervalRow for $name {
            const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];
            const COLUMNS: &'static [&'static str] =
                &[$(concat!($lane, ".", stringify!($field))),+];

            fn cycle(&self) -> u64 {
                self.cycle
            }

            fn values(&self) -> Vec<u64> {
                vec![$(self.$field),+]
            }

            fn from_values(cycle: u64, values: &[u64]) -> Self {
                let mut v = values.iter().copied();
                $name { cycle, $($field: v.next().unwrap_or(0)),+ }
            }

            fn since(&self, prev: &Self) -> Self {
                $name { cycle: self.cycle, $($field: self.$field - prev.$field),+ }
            }
        }
    };
}

interval_row! {
    /// One occupancy-timeline interval (ratios are computed at render
    /// time so the rows stay exact).
    OccPoint, "occ" {
        /// Σ resident warps × cycles over the interval.
        warp_cycles,
        /// Σ issue-ready warps × cycles over the interval.
        eligible_cycles,
        /// Issue slots that issued during the interval.
        issued_slots,
        /// Issue slots owned during the interval.
        total_slots,
    }
}

interval_row! {
    /// One memory-timeline interval: occupied MSHR-entry-cycles, the sum
    /// of per-SM peak occupancies, L2/DRAM requests granted, and cycles
    /// requests spent queued for bandwidth slots and at crossbar
    /// injection ports (Little's law: divide by the interval length for
    /// the average queue depth).
    MemPoint, "mem" {
        /// Σ occupied MSHR entries × cycles over the interval.
        mshr_occupied_cycles,
        /// Sum of per-SM peak MSHR occupancy over the interval.
        mshr_peak,
        /// L2 requests (fresh L1 misses) during the interval.
        l2_requests,
        /// DRAM line fills during the interval.
        dram_requests,
        /// Bandwidth-slot wait cycles accrued during the interval.
        bw_wait_cycles,
        /// Crossbar injection-port wait cycles accrued during the
        /// interval (0 in documents predating version 3).
        xbar_wait_cycles,
    }
}

interval_row! {
    /// One energy-timeline interval: raw event counts. Joules are
    /// applied at report time by [`crate::energy::EnergyWeights`].
    EnergyPoint, "energy" {
        /// DRAM line fills during the interval.
        dram_fills,
        /// Fresh fills granted an L2 request slot.
        l2_grants,
        /// Misses merged into in-flight MSHR fills.
        mshr_merges,
        /// Fills that crossed the SM↔partition crossbar.
        xbar_hops,
        /// Store misses that installed a line (write-allocates).
        write_allocs,
        /// Warp instructions issued during the interval.
        instructions,
        /// SM-resident clock ticks (awake or parked) during the
        /// interval.
        sm_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_own_their_layout_and_difference_field_wise() {
        assert_eq!(OccPoint::FIELDS[0], "warp_cycles");
        assert_eq!(MemPoint::COLUMNS[5], "mem.xbar_wait_cycles");
        assert_eq!(EnergyPoint::COLUMNS.len(), EnergyPoint::FIELDS.len());
        let prev = EnergyPoint::from_values(100, &[1, 2, 3, 4, 5, 6, 7]);
        let cur = EnergyPoint::from_values(200, &[2, 4, 6, 8, 10, 12, 14]);
        let d = cur.since(&prev);
        assert_eq!(d.cycle, 200);
        assert_eq!(d.values(), prev.values());
        assert_eq!(MemPoint::from_values(5, &[9]).values(), [9, 0, 0, 0, 0, 0]);
    }
}
