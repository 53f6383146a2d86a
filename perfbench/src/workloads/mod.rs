//! The four workloads. Each is set up once per setup repetition (the
//! part `setup_s` times) and then run pass after pass; a pass checks
//! every output it produces and reports the exact simulated figures it
//! saw, keyed by metric name.

mod chip80;
mod dse;
mod pair;
mod profiled;

use std::collections::BTreeMap;
use std::time::Instant;

use st2::prelude::GpuConfig;

use crate::reference;
use crate::trace::Tracer;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 23 kernels at full scale, baseline then ST², on the 4-SM harness.
    SuitePairFull,
    /// Seeded pointer-chasing loads on the 80-SM chip, MSHRs cut to 8.
    Chip80Starved,
    /// Functional engine with add records, then the Fig. 3/Fig. 5 replays.
    DseReplayTest,
    /// The `profile_report` path at test scale, one kernel after another.
    SuiteProfiledTest,
}

impl WorkloadKind {
    /// Every workload, in the order BENCHMARK.json lists them.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::SuitePairFull,
        WorkloadKind::Chip80Starved,
        WorkloadKind::DseReplayTest,
        WorkloadKind::SuiteProfiledTest,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SuitePairFull => "suite_pair_full",
            WorkloadKind::Chip80Starved => "chip80_starved",
            WorkloadKind::DseReplayTest => "dse_replay_test",
            WorkloadKind::SuiteProfiledTest => "suite_profiled_test",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs (one setup repetition).
    pub fn setup(self, seed: u64, tr: &mut Tracer) -> Box<dyn Workload> {
        match self {
            WorkloadKind::SuitePairFull => Box::new(pair::SuitePair::setup(tr)),
            WorkloadKind::Chip80Starved => Box::new(chip80::Chip80::setup(seed, tr)),
            WorkloadKind::DseReplayTest => Box::new(dse::DseReplay::setup(tr)),
            WorkloadKind::SuiteProfiledTest => Box::new(profiled::SuiteProfiled::setup(tr)),
        }
    }
}

/// Checked operations: every verification, divergence, reconciliation
/// and golden comparison counts as one attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
}

impl Checks {
    /// Counts one check; on failure prints `what()` to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Counts a `Result`-shaped check.
    pub fn check_result(&mut self, r: Result<(), String>, context: &str) {
        let ok = r.is_ok();
        self.check(ok, || format!("{context}: {}", r.err().unwrap_or_default()));
    }
}

/// One simulated output that the golden reference pins: a kernel/leg key,
/// its cycle (or record) count and a digest of its statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenEntry {
    /// `<kernel>/<leg>`, or `seed=<n>` / `shape` for `chip80_starved`.
    pub key: String,
    /// Simulated cycles (records or comparisons for the replay legs).
    pub value: u64,
    /// FNV-1a digest of the statistics' `Debug` rendering.
    pub digest: u64,
}

impl GoldenEntry {
    /// An entry digesting `stats`.
    pub fn new(key: String, value: u64, stats: &impl std::fmt::Debug) -> Self {
        GoldenEntry {
            key,
            value,
            digest: fnv1a(format!("{stats:?}").as_bytes()),
        }
    }
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Simulated warp-instructions executed (timed and functional).
    pub winst: u64,
    /// Exact simulated figures by metric name; identical on every pass.
    pub figures: BTreeMap<&'static str, f64>,
    /// Outputs for the golden comparison.
    pub golden: Vec<GoldenEntry>,
}

/// Times the parts of a pass (its kernels, by suite index), each after a
/// run of the reference loop when asked to.
#[derive(Debug, Clone, Default)]
pub struct Parts {
    reference: bool,
    started: Option<Instant>,
    /// `(part id, host seconds)` of each part, in run order.
    pub times: Vec<(usize, f64)>,
    /// Host seconds of each reference-loop run.
    pub ref_s: Vec<f64>,
}

impl Parts {
    /// A timer that runs the reference loop before each part when
    /// `reference` is set.
    #[must_use]
    pub fn new(reference: bool) -> Self {
        Parts {
            reference,
            ..Parts::default()
        }
    }

    /// Starts a part.
    pub fn start(&mut self) {
        if self.reference {
            self.ref_s.push(reference::time_once());
        }
        self.started = Some(Instant::now());
    }

    /// Ends the part started last, as part `id`.
    pub fn end(&mut self, id: usize) {
        let started = self.started.take().expect("a part was started");
        self.times.push((id, started.elapsed().as_secs_f64()));
    }
}

/// A set-up workload, ready to run passes.
pub trait Workload {
    /// Problem scale, for the run manifest.
    fn scale(&self) -> &'static str;
    /// The effective GPU configuration(s), labelled, for the run manifest.
    fn configs(&self) -> Vec<(&'static str, GpuConfig)>;
    /// Runs one pass, timing each kernel in `parts`. `order` seeds the
    /// kernel order of suite workloads (`None`: suite order); every check
    /// lands in `checks`.
    fn pass(
        &mut self,
        tr: &mut Tracer,
        parts: &mut Parts,
        order: Option<u64>,
        checks: &mut Checks,
    ) -> PassOutcome;
    /// Extra runs a traced run makes outside the measured passes (the
    /// telemetry-off leg that prices the telemetry hooks); none by default.
    fn probe(&mut self, _tr: &mut Tracer) {}
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: a tiny, stable generator for benchmark inputs (stable
/// across toolchains and dependency versions, unlike a library RNG).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
#[must_use]
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The order a suite pass runs its `n` kernels in: suite order, or a
/// permutation seeded by `order`.
fn kernel_order(n: usize, order: Option<u64>) -> Vec<usize> {
    order.map_or_else(|| (0..n).collect(), |seed| permutation(n, seed))
}

/// Adds a timed run's counters (cycles, sleep, skips, memory side) to
/// `figures`.
fn add_timed_figures(
    figures: &mut BTreeMap<&'static str, f64>,
    out: &st2::prelude::TimedOutput,
    cfg: &GpuConfig,
) {
    let act = &out.activity;
    let sm_cycles = u64::from(cfg.num_sms) * out.cycles;
    for (name, v) in [
        ("model.sim_cycles", out.cycles),
        ("sim.timed.winst", act.warp_instructions),
        ("sim.timed.sm_cycles", sm_cycles),
        ("sim.timed.awake_sm_cycles", sm_cycles - out.sm_sleep_cycles),
        ("sim.timed.sm_sleep_cycles", out.sm_sleep_cycles),
        ("sim.timed.mem_skip_cycles", out.mem_skip_cycles),
        ("sim.timed.ff_wakeups", out.ff_wakeups),
        ("sim.memory.l1_accesses", act.l1_accesses),
        ("sim.memory.l1_misses", act.l1_misses),
        ("sim.memory.l2_accesses", act.l2_accesses),
        ("sim.memory.dram_accesses", act.dram_accesses),
        ("sim.memory.mshr_merges", act.mshr_merges),
        ("sim.memory.mem_throttle", act.mem_throttle),
        ("sim.memory.bw_starved_cycles", act.bw_starved_cycles),
        ("sim.memory.xbar_hops", act.xbar_hops),
        ("sim.memory.xbar_wait_cycles", act.xbar_wait_cycles),
    ] {
        *figures.entry(name).or_default() += v as f64;
    }
}

/// Adds speculative-adder counts to `figures`.
fn add_adder_figures(figures: &mut BTreeMap<&'static str, f64>, a: &st2::prelude::AdderStats) {
    for (name, v) in [
        ("core.adder.ops", a.ops),
        ("core.adder.mispredicted_ops", a.mispredicted_ops),
        ("core.adder.slices_recomputed", a.slices_recomputed),
        ("core.adder.history_reads", a.history_reads),
        ("core.adder.history_writes", a.history_writes),
    ] {
        *figures.entry(name).or_default() += v as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadKind::from_name("suite"), None);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(23, 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..23).collect::<Vec<_>>());
        assert_eq!(a, permutation(23, 5));
        assert_ne!(a, permutation(23, 6));
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check_result(Err("boom".into()), "probe");
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
    }
}
