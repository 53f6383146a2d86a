//! Simulation statistics: dynamic instruction mixes (Fig. 1) and the
//! per-component activity counters the power model consumes (Fig. 7).

use serde::{Deserialize, Serialize};
use st2_core::AdderStats;
use st2_isa::InstClass;

/// Number of [`InstClass`] values.
pub const NUM_CLASSES: usize = 10;

/// Dense index of an instruction class.
#[must_use]
pub fn class_index(c: InstClass) -> usize {
    match c {
        InstClass::AluAdd => 0,
        InstClass::AluOther => 1,
        InstClass::FpuAdd => 2,
        InstClass::FpuOther => 3,
        InstClass::IntMulDiv => 4,
        InstClass::FpMulDiv => 5,
        InstClass::Sfu => 6,
        InstClass::Mem => 7,
        InstClass::Control => 8,
        InstClass::Other => 9,
    }
}

/// Thread-level dynamic instruction counts by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstMix {
    counts: [u64; NUM_CLASSES],
}

impl InstMix {
    /// Adds `n` executed thread-instructions of class `c`.
    pub fn add(&mut self, c: InstClass, n: u64) {
        self.counts[class_index(c)] += n;
    }

    /// Count for one class.
    #[must_use]
    pub fn count(&self, c: InstClass) -> u64 {
        self.counts[class_index(c)]
    }

    /// Total thread-instructions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of the total for one class (0 when empty).
    #[must_use]
    pub fn fraction(&self, c: InstClass) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(c) as f64 / t as f64
        }
    }

    /// The paper's Fig. 1 arithmetic-intensity measure: the fraction of
    /// dynamic instructions that are ALU or FPU/DPU operations (adds and
    /// others, plus mul/div and SFU — everything arithmetic).
    #[must_use]
    pub fn arithmetic_fraction(&self) -> f64 {
        use InstClass::*;
        [AluAdd, AluOther, FpuAdd, FpuOther, IntMulDiv, FpMulDiv, Sfu]
            .iter()
            .map(|&c| self.fraction(c))
            .sum()
    }

    /// Folds another mix into this one.
    pub fn merge(&mut self, other: &InstMix) {
        for i in 0..NUM_CLASSES {
            self.counts[i] += other.counts[i];
        }
    }
}

/// Everything the power model needs to know about a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// Thread-level instruction counts by class.
    pub mix: InstMix,
    /// Warp-level instructions issued.
    pub warp_instructions: u64,
    /// Register-file reads (thread-level operand reads).
    pub regfile_reads: u64,
    /// Register-file writes (thread-level result writes).
    pub regfile_writes: u64,
    /// Integer add/sub/compare operations that used the ALU adder
    /// (thread-level).
    pub adder_int_ops: u64,
    /// FP32 mantissa-adder operations (thread-level).
    pub adder_f32_ops: u64,
    /// FP64 mantissa-adder operations (thread-level).
    pub adder_f64_ops: u64,
    /// Fused multiply-add operations (thread-level; their accumulate is
    /// already in the adder counts, their multiply belongs to the
    /// multiplier's energy).
    pub fma_ops: u64,
    /// L1 accesses (coalesced transactions).
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// L1 misses merged into an already-in-flight MSHR line fill
    /// (no new L2/DRAM traffic; not counted in `l1_misses`).
    pub mshr_merges: u64,
    /// Memory-side back-pressure events: SM-cycles that ended with the
    /// MSHR file fully occupied (gating further global-memory issue),
    /// plus transactions that arrived at a full file and had to wait for
    /// an outstanding fill to retire before starting.
    pub mem_throttle: u64,
    /// Cycles granted-ready requests spent waiting purely for an L2 or
    /// DRAM bandwidth slot (they already held an MSHR entry), summed
    /// over requests. Decomposes `mem_throttle` attribution: high
    /// `bw_starved_cycles` with low `mem_throttle` means bandwidth, not
    /// MSHR capacity, is the bottleneck.
    pub bw_starved_cycles: u64,
    /// Cycles started fills spent queued at a full crossbar injection
    /// port before their L2 partition accepted them, summed over
    /// requests. Always zero with a single L2 partition (no crossbar is
    /// modeled); nonzero values mean the per-(SM, partition) port depth
    /// (`xbar_queue`), not bandwidth or MSHR capacity, delayed traffic.
    pub xbar_wait_cycles: u64,
    /// Fresh fills routed through the SM↔partition crossbar (one hop
    /// per fill). Always zero with a single L2 partition, where the
    /// crossbar is bypassed entirely.
    pub xbar_hops: u64,
    /// Store misses that allocated a line (write-allocate fills). A
    /// subset of `l1_misses`; priced separately because an allocate
    /// costs a tag write and a line install on top of the fill.
    pub write_allocates: u64,
    /// NoC flits moved (L1↔L2 traffic).
    pub noc_flits: u64,
    /// Shared-memory transactions (bank-conflicted accesses count once
    /// per serialised round).
    pub shared_accesses: u64,
    /// Extra serialised rounds caused by shared-memory bank conflicts.
    pub shared_bank_conflicts: u64,
    /// Total kernel cycles (max over SMs).
    pub cycles: u64,
    /// SM-cycles spent with resident work.
    pub active_sm_cycles: u64,
    /// SM-cycles spent idle (no resident block).
    pub idle_sm_cycles: u64,
    /// Cycles an FU issue was blocked by an ST² recompute stall.
    pub stall_cycles: u64,
    /// Aggregated speculative-adder statistics (empty in baseline runs).
    pub adder: AdderStats,
    /// CRF row reads.
    pub crf_reads: u64,
    /// CRF row writes.
    pub crf_writes: u64,
    /// Same-cycle same-row CRF write conflicts (losers of the paper's
    /// random arbitration).
    pub crf_conflicts: u64,
    /// Instruction fetches whose PC fell off the end of the program and
    /// were masked to `exit`. Nonzero on a well-formed program indicates
    /// a control-flow bug.
    pub fetch_oob: u64,
}

impl ActivityCounters {
    /// Folds another counter block into this one (summing cycles — use for
    /// accumulating across kernels, not across SMs of one run).
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.mix.merge(&other.mix);
        self.warp_instructions += other.warp_instructions;
        self.regfile_reads += other.regfile_reads;
        self.regfile_writes += other.regfile_writes;
        self.adder_int_ops += other.adder_int_ops;
        self.adder_f32_ops += other.adder_f32_ops;
        self.adder_f64_ops += other.adder_f64_ops;
        self.fma_ops += other.fma_ops;
        self.l1_accesses += other.l1_accesses;
        self.l1_misses += other.l1_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.dram_accesses += other.dram_accesses;
        self.mshr_merges += other.mshr_merges;
        self.mem_throttle += other.mem_throttle;
        self.bw_starved_cycles += other.bw_starved_cycles;
        self.xbar_wait_cycles += other.xbar_wait_cycles;
        self.xbar_hops += other.xbar_hops;
        self.write_allocates += other.write_allocates;
        self.noc_flits += other.noc_flits;
        self.shared_accesses += other.shared_accesses;
        self.shared_bank_conflicts += other.shared_bank_conflicts;
        self.cycles += other.cycles;
        self.active_sm_cycles += other.active_sm_cycles;
        self.idle_sm_cycles += other.idle_sm_cycles;
        self.stall_cycles += other.stall_cycles;
        self.adder.merge(&other.adder);
        self.crf_reads += other.crf_reads;
        self.crf_writes += other.crf_writes;
        self.crf_conflicts += other.crf_conflicts;
        self.fetch_oob += other.fetch_oob;
    }

    /// All thread-level adder operations.
    #[must_use]
    pub fn adder_ops(&self) -> u64 {
        self.adder_int_ops + self.adder_f32_ops + self.adder_f64_ops
    }

    /// Extrapolates a scaled-down simulation to chip level: event counts
    /// are multiplied by `event_factor` (more SMs running a
    /// proportionally larger grid in the same time) and SM-cycle counts
    /// by `sm_factor` (the SM-count ratio). Wall-clock cycles are
    /// unchanged. Used when comparing simulated activity against
    /// full-chip power measurements, where absolute magnitudes matter.
    #[must_use]
    pub fn extrapolated(&self, event_factor: u64, sm_factor: u64) -> ActivityCounters {
        let mut out = self.clone();
        let e = event_factor;
        out.mix = InstMix::default();
        for class in st2_isa::inst::all_classes() {
            out.mix.add(class, self.mix.count(class) * e);
        }
        out.warp_instructions *= e;
        out.regfile_reads *= e;
        out.regfile_writes *= e;
        out.adder_int_ops *= e;
        out.adder_f32_ops *= e;
        out.adder_f64_ops *= e;
        out.fma_ops *= e;
        out.l1_accesses *= e;
        out.l1_misses *= e;
        out.l2_accesses *= e;
        out.l2_misses *= e;
        out.dram_accesses *= e;
        out.mshr_merges *= e;
        out.mem_throttle *= e;
        out.bw_starved_cycles *= e;
        out.xbar_wait_cycles *= e;
        out.xbar_hops *= e;
        out.write_allocates *= e;
        out.noc_flits *= e;
        out.shared_accesses *= e;
        out.shared_bank_conflicts *= e;
        out.active_sm_cycles *= sm_factor;
        out.idle_sm_cycles *= sm_factor;
        out.stall_cycles *= e;
        out.crf_reads *= e;
        out.crf_writes *= e;
        out.crf_conflicts *= e;
        out.fetch_oob *= e;
        out.adder.ops *= e;
        out.adder.mispredicted_ops *= e;
        out.adder.extra_cycles *= e;
        out.adder.static_boundaries *= e;
        out.adder.dynamic_boundaries *= e;
        out.adder.boundary_errors *= e;
        out.adder.slices_cycle1 *= e;
        out.adder.slices_recomputed *= e;
        out.adder.history_reads *= e;
        out.adder.history_writes *= e;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fractions() {
        let mut m = InstMix::default();
        m.add(InstClass::AluAdd, 30);
        m.add(InstClass::Mem, 50);
        m.add(InstClass::Sfu, 20);
        assert_eq!(m.total(), 100);
        assert!((m.fraction(InstClass::AluAdd) - 0.3).abs() < 1e-12);
        assert!((m.arithmetic_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_mix_is_zero() {
        let m = InstMix::default();
        assert_eq!(m.fraction(InstClass::AluAdd), 0.0);
        assert_eq!(m.arithmetic_fraction(), 0.0);
    }

    #[test]
    fn counters_merge() {
        let mut a = ActivityCounters {
            l1_accesses: 5,
            cycles: 100,
            ..Default::default()
        };
        let b = ActivityCounters {
            l1_accesses: 7,
            cycles: 50,
            adder_int_ops: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.l1_accesses, 12);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.adder_ops(), 3);
    }

    /// Builds counters with every field a distinct prime, scaled by its
    /// extrapolation category: `e` for per-event counts, `s` for
    /// SM-cycle counts, `c` for fields `extrapolated` leaves unscaled.
    ///
    /// The literals are deliberately exhaustive (no
    /// `..Default::default()`): adding a field to `ActivityCounters` or
    /// `AdderStats` breaks this function at compile time, forcing the
    /// drift-guard expectations below to be revisited along with
    /// `merge` and `extrapolated`.
    fn primed(e: u64, s: u64, c: u64) -> ActivityCounters {
        let mut mix = InstMix::default();
        let mix_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29];
        for (class, p) in st2_isa::inst::all_classes().into_iter().zip(mix_primes) {
            mix.add(class, p * e);
        }
        ActivityCounters {
            mix,
            warp_instructions: 31 * e,
            regfile_reads: 37 * e,
            regfile_writes: 41 * e,
            adder_int_ops: 43 * e,
            adder_f32_ops: 47 * e,
            adder_f64_ops: 53 * e,
            fma_ops: 59 * e,
            l1_accesses: 61 * e,
            l1_misses: 67 * e,
            l2_accesses: 71 * e,
            l2_misses: 73 * e,
            dram_accesses: 79 * e,
            mshr_merges: 197 * e,
            mem_throttle: 199 * e,
            bw_starved_cycles: 211 * e,
            xbar_wait_cycles: 223 * e,
            xbar_hops: 227 * e,
            write_allocates: 229 * e,
            noc_flits: 83 * e,
            shared_accesses: 89 * e,
            shared_bank_conflicts: 97 * e,
            cycles: 101 * c,
            active_sm_cycles: 103 * s,
            idle_sm_cycles: 107 * s,
            stall_cycles: 109 * e,
            adder: AdderStats {
                ops: 113 * e,
                mispredicted_ops: 127 * e,
                extra_cycles: 131 * e,
                static_boundaries: 137 * e,
                dynamic_boundaries: 139 * e,
                boundary_errors: 149 * e,
                slices_cycle1: 151 * e,
                slices_recomputed: 157 * e,
                max_recomputed_in_op: u32::try_from(163 * c).unwrap(),
                history_reads: 167 * e,
                history_writes: 173 * e,
            },
            crf_reads: 179 * e,
            crf_writes: 181 * e,
            crf_conflicts: 191 * e,
            fetch_oob: 193 * e,
        }
    }

    #[test]
    fn merge_round_trips_every_field() {
        let mut a = primed(1, 1, 1);
        a.merge(&primed(1, 1, 1));
        // Every field doubles on merge except the running maximum, which
        // takes the larger of two equal values. `cycles` sums (merge
        // accumulates across kernels).
        let mut expected = primed(2, 2, 2);
        expected.adder.max_recomputed_in_op = 163;
        assert_eq!(a, expected, "merge dropped or mis-folded a field");
    }

    #[test]
    fn extrapolated_round_trips_every_field() {
        let base = primed(1, 1, 1);
        let out = base.extrapolated(3, 5);
        // Event counts scale by the event factor, SM-cycle counts by the
        // SM factor; wall-clock cycles and the per-op maximum are
        // intentionally unscaled.
        assert_eq!(
            out,
            primed(3, 5, 1),
            "extrapolated dropped or mis-scaled a field"
        );
        // And the original is untouched.
        assert_eq!(base, primed(1, 1, 1));
    }

    #[test]
    fn class_indices_are_distinct() {
        let mut seen = [false; NUM_CLASSES];
        for c in st2_isa::inst::all_classes() {
            let i = class_index(c);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
