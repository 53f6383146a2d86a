//! `suite_profiled_test`: the `profile_report` path at `Scale::Test`,
//! one kernel after another on one simulation thread: ST² on, telemetry
//! on, `KernelProfile::capture`, the slot-identity reconciliation,
//! `attach_energy`, `to_json`, and the `BENCH_profile.json` summary.
//! Every kernel's cycles must equal the committed `BENCH_profile.json`.

use st2::prelude::*;
use st2::telemetry::EnergyWeights;
use st2_bench::diff::{parse_summary, summary_from_profiles, summary_to_json};

use super::{
    add_adder_figures, add_timed_figures, kernel_order, Checks, GoldenEntry, Parts, PassOutcome,
    Workload,
};
use crate::trace::Tracer;

/// The committed per-kernel test-scale baseline.
const BENCH_PROFILE: &str = include_str!("../../../BENCH_profile.json");

pub struct SuiteProfiled {
    specs: Vec<KernelSpec>,
    cfg: GpuConfig,
    weights: EnergyWeights,
    /// `BENCH_profile.json` cycles by suite index (`None`: not listed).
    committed_cycles: Vec<Option<u64>>,
}

impl SuiteProfiled {
    pub fn setup(tr: &mut Tracer) -> Self {
        let specs = tr.span("kernels.build", |_| suite(Scale::Test));
        let cfg = st2_bench::harness_gpu().with_st2().with_sim_threads(1);
        let energy = tr.span("circuit.characterize", |_| EnergyModel::characterized());
        let weights = tr.span("power.weights", |_| energy.interval_weights(cfg.clock_ghz));
        let committed = tr.span("bench.parse_baseline", |_| parse_summary(BENCH_PROFILE));
        let committed = committed.expect("the committed BENCH_profile.json parses");
        let committed_cycles = specs
            .iter()
            .map(|s| {
                committed
                    .kernels
                    .iter()
                    .find(|k| k.kernel == s.name)
                    .map(|k| k.cycles)
            })
            .collect();
        SuiteProfiled {
            specs,
            cfg,
            weights,
            committed_cycles,
        }
    }
}

/// Every SM's issue slots must reconcile to the cycle count exactly
/// (`issued + Σ stalls == cycles × issue_width`).
fn reconciles(profile: &KernelProfile, cfg: &GpuConfig, cycles: u64) -> bool {
    profile.sms.iter().all(|sm| {
        sm.cycles == cycles
            && sm.slots == cycles * u64::from(cfg.issue_width)
            && sm.unattributed() == 0
    })
}

impl Workload for SuiteProfiled {
    fn scale(&self) -> &'static str {
        "test"
    }

    fn configs(&self) -> Vec<(&'static str, GpuConfig)> {
        vec![("st2", self.cfg)]
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        parts: &mut Parts,
        order: Option<u64>,
        checks: &mut Checks,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut profiles = vec![None; self.specs.len()];
        // Per-kernel rates by suite index, averaged in suite order.
        let mut rates = vec![0.0; self.specs.len()];
        let mut json_bytes = 0usize;
        for i in kernel_order(self.specs.len(), order) {
            parts.start();
            let spec = &self.specs[i];
            let mut tele = tr.span("telemetry.for_run", |_| {
                Telemetry::for_run(self.cfg.num_sms as usize, TelemetryConfig::default())
            });
            let mut mem = tr.span("isa.mem_clone", |_| spec.memory.clone());
            let run = tr.span("sim.timed.st2", |_| {
                run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut mem,
                    &self.cfg,
                    RunOptions::with_telemetry(&mut tele),
                )
            });
            let verdict = tr.span("kernels.verify", |_| spec.verify(&mem));
            checks.check_result(verdict, spec.name);
            let mut profile = tr.span("telemetry.capture", |_| {
                KernelProfile::capture(&tele, spec.name, Some(&spec.program))
            });
            tr.span("telemetry.price", |_| profile.attach_energy(&self.weights));
            checks.check(reconciles(&profile, &self.cfg, run.cycles), || {
                format!(
                    "{}: issue slots do not reconcile with cycles × issue_width",
                    spec.name
                )
            });
            json_bytes += tr.span("telemetry.json", |_| profile.to_json()).len();
            checks.check(self.committed_cycles[i] == Some(run.cycles), || {
                format!(
                    "{}: {} cycles, BENCH_profile.json has {:?}",
                    spec.name, run.cycles, self.committed_cycles[i]
                )
            });

            out.winst += run.activity.warp_instructions;
            add_timed_figures(&mut out.figures, &run, &self.cfg);
            add_adder_figures(&mut out.figures, &run.activity.adder);
            rates[i] = run.activity.adder.misprediction_rate();
            out.golden.push(GoldenEntry::new(
                format!("{}/profiled", spec.name),
                run.cycles,
                &run.activity,
            ));
            profiles[i] = Some(profile);
            parts.end(i);
        }
        let profiles: Vec<KernelProfile> = profiles.into_iter().flatten().collect();
        let summary = tr.span("bench.summary", |_| {
            let doc = summary_from_profiles(&profiles, "st2-perfbench suite_profiled_test");
            summary_to_json(&doc)
        });
        out.figures
            .insert("telemetry.json_bytes", json_bytes as f64);
        out.figures
            .insert("bench.summary_bytes", summary.len() as f64);
        out.figures.insert(
            "model.st2_mispredict_rate",
            rates.iter().sum::<f64>() / rates.len() as f64,
        );
        out
    }

    fn probe(&mut self, tr: &mut Tracer) {
        for spec in &self.specs {
            let mut mem = tr.span("isa.mem_clone", |_| spec.memory.clone());
            tr.span("sim.timed.plain", |_| {
                run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut mem,
                    &self.cfg,
                    RunOptions::default(),
                )
            });
        }
    }
}
