//! Turns a run's measurements into its metrics: the end-to-end set
//! (tracing off) and the per-layer set (the traced run), each metric
//! with the end-to-end metric and workload it should move.

use std::collections::BTreeMap;

use crate::reference;
use crate::stats::{median, ratio, Ratio};
use crate::trace::{layer_of, self_time_by_root, Span};
use crate::workloads::{Checks, PassOutcome, WorkloadKind};

/// Everything one run measured.
pub struct Measured {
    /// The workload.
    pub kind: WorkloadKind,
    /// Host seconds of each setup repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of the reference loop before each setup repetition.
    pub setup_ref_s: Vec<f64>,
    /// Host seconds of each untraced pass, reference loops taken out.
    pub pass_s: Vec<f64>,
    /// Host seconds of a typical untraced pass: the sum of each kernel's
    /// median (see `stats::PartTimes`).
    pub typical_pass_s: f64,
    /// Host seconds of each traced pass (traced runs only).
    pub traced_pass_s: Vec<f64>,
    /// Host seconds of the reference loop before each kernel of the
    /// untraced passes.
    pub ref_s: Vec<f64>,
    /// The first pass's outcome (every pass's figures are checked equal).
    pub outcome: PassOutcome,
    /// Every check made.
    pub checks: Checks,
    /// The traced run's spans.
    pub spans: Vec<Span>,
    /// Peak resident set through setup and the warm-up pass, MiB.
    pub peak_rss_mib: f64,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when undefined (a ratio with a zero base).
    pub value: Ratio,
}

/// The end-to-end metrics of BENCHMARK.json: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("sim_kwinst_per_s", "kwinst/s"),
    ("peak_rss_mib", "MiB"),
    ("verified_share", "share"),
];

impl Measured {
    fn figure(&self, name: &str) -> f64 {
        self.outcome.figures.get(name).copied().unwrap_or(0.0)
    }

    /// Typical pass time, scaled to the reference host.
    fn pass_scaled(&self) -> f64 {
        let ref_s = median(&self.ref_s).expect("a pass ran the reference loop");
        reference::scaled(self.typical_pass_s, ref_s)
    }

    /// Median setup time, scaled to the reference host.
    fn setup_scaled(&self) -> Option<f64> {
        Some(reference::scaled(
            median(&self.setup_s)?,
            median(&self.setup_ref_s)?,
        ))
    }
}

/// The end-to-end metrics, in [`END_TO_END`] order. Times are medians,
/// scaled to the reference host.
#[must_use]
pub fn end_to_end(m: &Measured) -> Vec<Value> {
    let pass = m.pass_scaled();
    let values = [
        Ratio(Some(pass)),
        Ratio(m.setup_scaled()),
        ratio(m.outcome.winst as f64 / 1e3, pass),
        Ratio(Some(m.peak_rss_mib)),
        ratio(
            (m.checks.attempted - m.checks.failed) as f64,
            m.checks.attempted as f64,
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Value { name, unit, value })
        .collect()
}

/// The simulated-time and failure figures printed next to the end-to-end
/// metrics (exact; `None` where the workload has no such figure).
#[must_use]
pub fn model_figures(m: &Measured) -> Vec<Value> {
    let has = |n: &str| m.outcome.figures.contains_key(n);
    let fig = |n: &'static str| Ratio(has(n).then(|| m.figure(n)));
    let replayed = m.figure("core.fig3.records") + m.figure("core.fig5.records");
    vec![
        Value {
            name: "fail_share",
            unit: "share",
            value: ratio(m.checks.failed as f64, m.checks.attempted as f64),
        },
        Value {
            name: "sim_cycles",
            unit: "cycles",
            value: fig("model.sim_cycles"),
        },
        Value {
            name: "st2_slowdown",
            unit: "share",
            value: fig("model.st2_slowdown"),
        },
        Value {
            name: "st2_system_energy_saving",
            unit: "share",
            value: fig("model.st2_system_energy_saving"),
        },
        Value {
            name: "st2_mispredict_rate",
            unit: "share",
            value: fig("model.st2_mispredict_rate"),
        },
        Value {
            name: "replay_mrecords_per_s",
            unit: "Mrec/s",
            value: Ratio((replayed > 0.0).then(|| replayed / 1e6 / m.pass_scaled())),
        },
    ]
}

/// A per-layer metric with its prediction: which end-to-end metric it
/// should move, on which workload, and whether that metric moves the
/// same way or the opposite way.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload(s) it should move it on.
    pub on: &'static str,
    /// `same` or `opposite` direction.
    pub direction: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
    direction: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
        direction,
    }
}

const SUITES: &str = "suite_pair_full,dse_replay_test,suite_profiled_test";
const TIMED: &str = "suite_pair_full,chip80_starved,suite_profiled_test";

/// The per-layer metrics of BENCHMARK.json, in order.
#[rustfmt::skip]
pub const PER_LAYER: [LayerMetric; 53] = [
    lm("kernels.build_s", "s", "lower", "setup_s", SUITES, "same"),
    lm("kernels.verify_s", "s", "lower", "pass_s", SUITES, "same"),
    lm("isa.mem_clone_s", "s", "lower", "pass_s", "suite_pair_full", "same"),
    lm("isa.chain_image_s", "s", "lower", "setup_s", "chip80_starved", "same"),
    lm("sim.timed.self_s", "s", "lower", "pass_s", TIMED, "same"),
    lm("sim.timed.base_host_s", "s", "lower", "pass_s", "suite_pair_full", "same"),
    lm("sim.timed.st2_host_s", "s", "lower", "pass_s", "suite_pair_full", "same"),
    lm("sim.timed.ns_per_winst", "ns", "lower", "sim_kwinst_per_s", "suite_pair_full", "opposite"),
    lm("sim.timed.ns_per_awake_sm_cycle", "ns", "lower", "pass_s", "suite_pair_full", "same"),
    lm("sim.timed.sm_sleep_share", "share", "higher", "pass_s", "chip80_starved", "opposite"),
    lm("sim.timed.mem_skip_share", "share", "higher", "pass_s", "chip80_starved", "opposite"),
    lm("sim.timed.ff_wakeups", "count", "lower", "pass_s", "chip80_starved", "same"),
    lm("sim.timed.ns_per_mem_txn", "ns", "lower", "pass_s", "chip80_starved", "same"),
    lm("sim.st2.extra_host_s", "s", "lower", "pass_s", "suite_pair_full", "same"),
    lm("sim.st2.ns_per_adder_op", "ns", "lower", "pass_s", "suite_pair_full", "same"),
    lm("sim.memory.l1_accesses", "count", "lower", "sim_cycles", "chip80_starved", "same"),
    lm("sim.memory.l1_hit_ratio", "share", "higher", "sim_cycles", "chip80_starved", "opposite"),
    lm("sim.memory.l2_accesses", "count", "lower", "sim_cycles", "chip80_starved", "same"),
    lm("sim.memory.dram_accesses", "count", "lower", "sim_cycles", "chip80_starved", "same"),
    lm("sim.memory.mshr_merges", "count", "higher", "sim_cycles", "chip80_starved", "opposite"),
    lm("sim.memory.mem_throttle", "count", "lower", "sim_cycles", "chip80_starved", "same"),
    lm("sim.memory.bw_starved_cycles", "cycles", "lower", "sim_cycles", "chip80_starved", "same"),
    lm("sim.memory.xbar_hops", "count", "lower", "pass_s", "chip80_starved", "same"),
    lm("sim.memory.xbar_wait_cycles", "cycles", "lower", "sim_cycles", "chip80_starved", "same"),
    lm("sim.engine.host_s", "s", "lower", "pass_s", "dse_replay_test", "same"),
    lm("sim.engine.ns_per_winst", "ns", "lower", "pass_s", "dse_replay_test", "same"),
    lm("sim.engine.records", "count", "lower", "pass_s", "dse_replay_test", "same"),
    lm("core.self_s", "s", "lower", "pass_s", "dse_replay_test", "same"),
    lm("core.fig5_sweep_s", "s", "lower", "pass_s", "dse_replay_test", "same"),
    lm("core.fig5.ns_per_record", "ns", "lower", "pass_s", "dse_replay_test", "same"),
    lm("core.fig3_corr_s", "s", "lower", "pass_s", "dse_replay_test", "same"),
    lm("core.fig3.ns_per_record", "ns", "lower", "pass_s", "dse_replay_test", "same"),
    lm("core.replay_mrecords_per_s", "Mrec/s", "higher", "pass_s", "dse_replay_test", "opposite"),
    lm("core.adder.mispredicted_ops", "count", "lower", "st2_mispredict_rate", "dse_replay_test", "same"),
    lm("core.adder.slices_recomputed", "count", "lower", "st2_slowdown", "suite_pair_full", "same"),
    lm("core.adder.history_reads", "count", "lower", "pass_s", "suite_pair_full", "same"),
    lm("core.adder.history_writes", "count", "lower", "pass_s", "suite_pair_full", "same"),
    lm("circuit.characterize_s", "s", "lower", "setup_s", "suite_pair_full, suite_profiled_test", "same"),
    lm("power.price_s", "s", "lower", "pass_s", "suite_pair_full", "same"),
    lm("telemetry.self_s", "s", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("telemetry.overhead_share", "share", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("telemetry.capture_s", "s", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("telemetry.price_s", "s", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("telemetry.json_s", "s", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("telemetry.json_bytes", "bytes", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("bench.self_s", "s", "lower", "pass_s", "chip80_starved, suite_profiled_test", "same"),
    lm("bench.summary_s", "s", "lower", "pass_s", "suite_profiled_test", "same"),
    lm("bench.unattributed_s", "s", "lower", "pass_s", "all", "same"),
    lm("bench.trace_overhead_share", "share", "lower", "none (traced run only)", "all", "same"),
    lm("model.sim_cycles", "cycles", "lower", "pass_s", TIMED, "same"),
    lm("model.st2_slowdown", "share", "lower", "none (exact model figure)", "suite_pair_full", "same"),
    lm("model.st2_system_energy_saving", "share", "higher", "none (exact model figure)", "suite_pair_full", "same"),
    lm("model.st2_mispredict_rate", "share", "lower", "none (exact model figure)", "dse_replay_test", "same"),
];

/// What the traced run should show for a workload: its dominant layer
/// and the layers it never calls (predicted to read zero).
#[must_use]
pub fn expectation(kind: WorkloadKind) -> (&'static str, &'static [&'static str]) {
    match kind {
        WorkloadKind::SuitePairFull => ("sim.timed", &["sim.engine", "core", "telemetry"]),
        WorkloadKind::Chip80Starved => (
            "sim.timed",
            &[
                "kernels",
                "sim.engine",
                "core",
                "power",
                "telemetry",
                "circuit",
            ],
        ),
        WorkloadKind::DseReplayTest => ("core", &["sim.timed", "power", "telemetry", "circuit"]),
        WorkloadKind::SuiteProfiledTest => ("sim.timed", &["sim.engine", "core"]),
    }
}

/// Per root kind (`bench.setup`, `bench.pass`, `bench.probe`): one map
/// per root of self time by span name.
fn roots_named<'a>(
    roots: &'a [(&'static str, BTreeMap<&'static str, f64>)],
    root: &'a str,
) -> impl Iterator<Item = &'a BTreeMap<&'static str, f64>> + 'a {
    roots
        .iter()
        .filter(move |(n, _)| *n == root)
        .map(|(_, m)| m)
}

/// Median over roots named `root` of the summed self time of the spans
/// `pick` selects (the root's own self time is never picked).
fn median_self(
    roots: &[(&'static str, BTreeMap<&'static str, f64>)],
    root: &str,
    pick: impl Fn(&str) -> bool,
) -> Option<f64> {
    let per_root: Vec<f64> = roots_named(roots, root)
        .map(|m| {
            m.iter()
                .filter(|(n, _)| **n != root && pick(n))
                .fold(0.0, |acc, (_, s)| acc + s)
        })
        .collect();
    median(&per_root)
}

/// Self time per layer (median over traced passes), with the passes'
/// own remainder as `bench.unattributed`.
#[must_use]
pub fn layer_self_times(spans: &[Span]) -> Vec<(String, f64)> {
    let roots = self_time_by_root(spans);
    let mut layers: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent.is_some() && spans[s.pass].name == "bench.pass")
        .map(|s| layer_of(s.name))
        .collect();
    layers.sort_unstable();
    layers.dedup();
    let mut out: Vec<(String, f64)> = layers
        .into_iter()
        .map(|l| {
            let t = median_self(&roots, "bench.pass", |n| layer_of(n) == l).unwrap_or(0.0);
            (l.to_string(), t)
        })
        .collect();
    out.push(("bench.unattributed".into(), unattributed(&roots)));
    out
}

/// Every layer a traced run touched at all (setup or pass).
#[must_use]
pub fn touched_layers(spans: &[Span]) -> Vec<&'static str> {
    let mut v: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent.is_some() && spans[s.pass].name != "bench.probe")
        .map(|s| layer_of(s.name))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The per-layer metrics, in [`PER_LAYER`] order.
#[must_use]
pub fn per_layer(m: &Measured) -> Vec<Value> {
    let roots = self_time_by_root(&m.spans);
    let span = |root: &str, name: &str| median_self(&roots, root, |n| n == name);
    let pass = |name: &str| span("bench.pass", name).unwrap_or(0.0);
    let layer = |l: &str| median_self(&roots, "bench.pass", |n| layer_of(n) == l).unwrap_or(0.0);
    let ns = |s: f64| s * 1e9;
    let fig = |n: &str| m.figure(n);
    let has = |n: &str| m.outcome.figures.contains_key(n);

    let timed = layer("sim.timed");
    let (base, st2) = (pass("sim.timed.base"), pass("sim.timed.st2"));
    // ST² extra cost needs both legs; with no ST² leg there is none; with
    // only an ST² leg there is no baseline to subtract.
    let extra = match (base > 0.0, st2 > 0.0) {
        (true, true) => {
            let per_pass: Vec<f64> = roots_named(&roots, "bench.pass")
                .map(|r| {
                    r.get("sim.timed.st2").copied().unwrap_or(0.0)
                        - r.get("sim.timed.base").copied().unwrap_or(0.0)
                })
                .collect();
            Ratio(median(&per_pass))
        }
        (_, false) => Ratio(Some(0.0)),
        (false, true) => Ratio(None),
    };
    let (fig3, fig5) = (pass("core.fig3_corr"), pass("core.fig5_sweep"));
    let replayed = fig("core.fig3.records") + fig("core.fig5.records");
    let plain = median_self(&roots, "bench.probe", |n| n == "sim.timed.plain");
    let telemetry_overhead = match plain {
        Some(p) => ratio(st2 - p, p),
        None => Ratio(None),
    };
    let trace_overhead = match (median(&m.traced_pass_s), median(&m.pass_s)) {
        (Some(t), Some(u)) => ratio(t - u, u),
        _ => Ratio(None),
    };
    let exact = |n: &str| Ratio(has(n).then(|| fig(n)));
    let some = |v: f64| Ratio(Some(v));

    let mut values: BTreeMap<&str, Ratio> = BTreeMap::new();
    for (name, v) in [
        (
            "kernels.build_s",
            some(span("bench.setup", "kernels.build").unwrap_or(0.0)),
        ),
        ("kernels.verify_s", some(pass("kernels.verify"))),
        ("isa.mem_clone_s", some(pass("isa.mem_clone"))),
        (
            "isa.chain_image_s",
            some(span("bench.setup", "isa.chain_image").unwrap_or(0.0)),
        ),
        ("sim.timed.self_s", some(timed)),
        ("sim.timed.base_host_s", some(base)),
        ("sim.timed.st2_host_s", some(st2)),
        (
            "sim.timed.ns_per_winst",
            ratio(ns(timed), fig("sim.timed.winst")),
        ),
        (
            "sim.timed.ns_per_awake_sm_cycle",
            ratio(ns(timed), fig("sim.timed.awake_sm_cycles")),
        ),
        (
            "sim.timed.sm_sleep_share",
            ratio(fig("sim.timed.sm_sleep_cycles"), fig("sim.timed.sm_cycles")),
        ),
        (
            "sim.timed.mem_skip_share",
            ratio(fig("sim.timed.mem_skip_cycles"), fig("model.sim_cycles")),
        ),
        ("sim.timed.ff_wakeups", some(fig("sim.timed.ff_wakeups"))),
        (
            "sim.timed.ns_per_mem_txn",
            ratio(ns(timed), fig("sim.memory.l1_accesses")),
        ),
        ("sim.st2.extra_host_s", extra),
        (
            "sim.st2.ns_per_adder_op",
            match extra.0 {
                Some(e) if st2 > 0.0 => ratio(ns(e), fig("core.adder.ops")),
                _ => Ratio(None),
            },
        ),
        (
            "sim.memory.l1_accesses",
            some(fig("sim.memory.l1_accesses")),
        ),
        (
            "sim.memory.l1_hit_ratio",
            ratio(
                fig("sim.memory.l1_accesses")
                    - fig("sim.memory.mshr_merges")
                    - fig("sim.memory.l1_misses"),
                fig("sim.memory.l1_accesses") - fig("sim.memory.mshr_merges"),
            ),
        ),
        (
            "sim.memory.l2_accesses",
            some(fig("sim.memory.l2_accesses")),
        ),
        (
            "sim.memory.dram_accesses",
            some(fig("sim.memory.dram_accesses")),
        ),
        (
            "sim.memory.mshr_merges",
            some(fig("sim.memory.mshr_merges")),
        ),
        (
            "sim.memory.mem_throttle",
            some(fig("sim.memory.mem_throttle")),
        ),
        (
            "sim.memory.bw_starved_cycles",
            some(fig("sim.memory.bw_starved_cycles")),
        ),
        ("sim.memory.xbar_hops", some(fig("sim.memory.xbar_hops"))),
        (
            "sim.memory.xbar_wait_cycles",
            some(fig("sim.memory.xbar_wait_cycles")),
        ),
        ("sim.engine.host_s", some(pass("sim.engine.run"))),
        (
            "sim.engine.ns_per_winst",
            ratio(ns(pass("sim.engine.run")), fig("sim.engine.winst")),
        ),
        ("sim.engine.records", some(fig("sim.engine.records"))),
        ("core.self_s", some(layer("core"))),
        ("core.fig5_sweep_s", some(fig5)),
        (
            "core.fig5.ns_per_record",
            ratio(ns(fig5), fig("core.fig5.records")),
        ),
        ("core.fig3_corr_s", some(fig3)),
        (
            "core.fig3.ns_per_record",
            ratio(ns(fig3), fig("core.fig3.records")),
        ),
        (
            "core.replay_mrecords_per_s",
            ratio(replayed / 1e6, fig3 + fig5),
        ),
        (
            "core.adder.mispredicted_ops",
            some(fig("core.adder.mispredicted_ops")),
        ),
        (
            "core.adder.slices_recomputed",
            some(fig("core.adder.slices_recomputed")),
        ),
        (
            "core.adder.history_reads",
            some(fig("core.adder.history_reads")),
        ),
        (
            "core.adder.history_writes",
            some(fig("core.adder.history_writes")),
        ),
        (
            "circuit.characterize_s",
            some(span("bench.setup", "circuit.characterize").unwrap_or(0.0)),
        ),
        ("power.price_s", some(pass("power.price"))),
        ("telemetry.self_s", some(layer("telemetry"))),
        ("telemetry.overhead_share", telemetry_overhead),
        ("telemetry.capture_s", some(pass("telemetry.capture"))),
        ("telemetry.price_s", some(pass("telemetry.price"))),
        ("telemetry.json_s", some(pass("telemetry.json"))),
        ("telemetry.json_bytes", some(fig("telemetry.json_bytes"))),
        ("bench.self_s", some(layer("bench"))),
        ("bench.summary_s", some(pass("bench.summary"))),
        ("bench.unattributed_s", some(unattributed(&roots))),
        ("bench.trace_overhead_share", trace_overhead),
        ("model.sim_cycles", exact("model.sim_cycles")),
        ("model.st2_slowdown", exact("model.st2_slowdown")),
        (
            "model.st2_system_energy_saving",
            exact("model.st2_system_energy_saving"),
        ),
        (
            "model.st2_mispredict_rate",
            exact("model.st2_mispredict_rate"),
        ),
    ] {
        values.insert(name, v);
    }
    PER_LAYER
        .iter()
        .map(|lm| Value {
            name: lm.name,
            unit: lm.unit,
            value: *values
                .get(lm.name)
                .expect("every per-layer metric is computed"),
        })
        .collect()
}

/// Median over traced passes of the passes' own self time: host time
/// inside a pass but outside every layer call.
fn unattributed(roots: &[(&'static str, BTreeMap<&'static str, f64>)]) -> f64 {
    let v: Vec<f64> = roots_named(roots, "bench.pass")
        .map(|m| m.get("bench.pass").copied().unwrap_or(0.0))
        .collect();
    median(&v).unwrap_or(0.0)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
/// An undefined value is written as 0 (the line holds numbers only); the
/// human-readable report above it says "undefined".
#[must_use]
pub fn result_json(checks: &Checks, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                v.value.0.filter(|x| x.is_finite()).unwrap_or(0.0),
                v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        for (name, unit) in END_TO_END {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "end-to-end {name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for m in PER_LAYER {
            assert!(
                text.contains(&format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )),
                "per-layer {} missing from BENCHMARK.json",
                m.name
            );
        }
        for w in WorkloadKind::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_shape() {
        let checks = Checks {
            attempted: 3,
            failed: 0,
        };
        let line = result_json(
            &checks,
            &[
                Value {
                    name: "pass_s",
                    unit: "s",
                    value: Ratio(Some(1.25)),
                },
                Value {
                    name: "x",
                    unit: "ns",
                    value: Ratio(None),
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ns\"}}}"
        );
    }
}
