//! `suite_pair_full`: the 23 paper kernels at `Scale::Full` on the 4-SM
//! harness, baseline then ST² (the §VI / Fig. 7 pair), telemetry off,
//! each verified against its CPU reference and the two legs' memories
//! compared; the pair's activities are then priced into the Fig. 7
//! energy saving.

use st2::power::breakdown::summarize;
use st2::prelude::*;

use super::{
    add_adder_figures, add_timed_figures, kernel_order, Checks, GoldenEntry, Parts, PassOutcome,
    Workload,
};
use crate::trace::Tracer;

pub struct SuitePair {
    specs: Vec<KernelSpec>,
    energy: EnergyModel,
    base: GpuConfig,
    st2: GpuConfig,
}

impl SuitePair {
    pub fn setup(tr: &mut Tracer) -> Self {
        let specs = tr.span("kernels.build", |_| suite(Scale::Full));
        let energy = tr.span("circuit.characterize", |_| EnergyModel::characterized());
        let base = st2_bench::harness_gpu().with_sim_threads(1);
        SuitePair {
            specs,
            energy,
            base,
            st2: base.with_st2(),
        }
    }
}

impl Workload for SuitePair {
    fn scale(&self) -> &'static str {
        "full"
    }

    fn configs(&self) -> Vec<(&'static str, GpuConfig)> {
        vec![("baseline", self.base), ("st2", self.st2)]
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        parts: &mut Parts,
        order: Option<u64>,
        checks: &mut Checks,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        // Per-kernel results by suite index, so the float aggregates below
        // sum in suite order whatever order the kernels ran in.
        let mut legs = vec![None; self.specs.len()];
        for i in kernel_order(self.specs.len(), order) {
            parts.start();
            let spec = &self.specs[i];
            let mut m1 = tr.span("isa.mem_clone", |_| spec.memory.clone());
            let base = tr.span("sim.timed.base", |_| {
                run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut m1,
                    &self.base,
                    RunOptions::default(),
                )
            });
            let mut m2 = tr.span("isa.mem_clone", |_| spec.memory.clone());
            let st2 = tr.span("sim.timed.st2", |_| {
                run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut m2,
                    &self.st2,
                    RunOptions::default(),
                )
            });
            checks.check(m1.as_bytes() == m2.as_bytes(), || {
                format!("{}: baseline and ST² memories diverge", spec.name)
            });
            let verdict = tr.span("kernels.verify", |_| spec.verify(&m1));
            checks.check_result(verdict, spec.name);

            out.winst += base.activity.warp_instructions + st2.activity.warp_instructions;
            add_timed_figures(&mut out.figures, &base, &self.base);
            add_timed_figures(&mut out.figures, &st2, &self.st2);
            add_adder_figures(&mut out.figures, &st2.activity.adder);
            out.golden.push(GoldenEntry::new(
                format!("{}/base", spec.name),
                base.cycles,
                &base.activity,
            ));
            out.golden.push(GoldenEntry::new(
                format!("{}/st2", spec.name),
                st2.cycles,
                &st2.activity,
            ));
            legs[i] = Some((base, st2));
            parts.end(i);
        }
        let legs: Vec<(TimedOutput, TimedOutput)> = legs.into_iter().flatten().collect();
        let clock = self.base.clock_ghz;
        let saving = tr.span("power.price", |_| {
            let kernels: Vec<KernelEnergy> = self
                .specs
                .iter()
                .zip(&legs)
                .map(|(spec, (b, s))| {
                    KernelEnergy::from_activities(
                        spec.name,
                        &self.energy,
                        &b.activity,
                        &s.activity,
                        clock,
                    )
                })
                .collect();
            summarize(&kernels).avg_system_savings
        });
        let n = legs.len() as f64;
        let mean =
            |f: &dyn Fn(&(TimedOutput, TimedOutput)) -> f64| legs.iter().map(f).sum::<f64>() / n;
        out.figures.insert(
            "model.st2_slowdown",
            mean(&|(b, s)| s.cycles as f64 / b.cycles as f64 - 1.0),
        );
        out.figures.insert("model.st2_system_energy_saving", saving);
        out.figures.insert(
            "model.st2_mispredict_rate",
            mean(&|(_, s)| s.activity.adder.misprediction_rate()),
        );
        out
    }
}
