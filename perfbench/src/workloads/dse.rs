//! `dse_replay_test`: the functional engine with `AddRecord` collection
//! over the suite at `Scale::Test`, then the design-space replays: Fig. 3
//! carry correlation for its three schemes and the Fig. 5 sweep over its
//! 13 design points, kernel by kernel as the `fig3`/`fig5` binaries do.
//! The timed engine is bypassed entirely.

use st2::core::dse::{carry_correlation, fig3_schemes, fig5_design_points, sweep};
use st2::prelude::*;

use super::{add_adder_figures, kernel_order, Checks, GoldenEntry, Parts, PassOutcome, Workload};
use crate::trace::Tracer;

/// The final ST² design point, whose misprediction rate the paper quotes.
const ST2_POINT: &str = "Ltid+Prev+ModPC4+Peek";

pub struct DseReplay {
    specs: Vec<KernelSpec>,
    points: Vec<SpeculationConfig>,
    st2_point: usize,
}

impl DseReplay {
    pub fn setup(tr: &mut Tracer) -> Self {
        let specs = tr.span("kernels.build", |_| suite(Scale::Test));
        let points = fig5_design_points();
        let st2_point = points
            .iter()
            .position(|c| c.label() == ST2_POINT)
            .expect("Fig. 5 lists the final ST² design point");
        DseReplay {
            specs,
            points,
            st2_point,
        }
    }
}

impl Workload for DseReplay {
    fn scale(&self) -> &'static str {
        "test"
    }

    fn configs(&self) -> Vec<(&'static str, GpuConfig)> {
        // The functional engine takes no GpuConfig.
        Vec::new()
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        parts: &mut Parts,
        order: Option<u64>,
        checks: &mut Checks,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        let schemes = fig3_schemes();
        // Per-kernel rates by suite index, averaged in suite order.
        let mut rates = vec![0.0; self.specs.len()];
        for i in kernel_order(self.specs.len(), order) {
            parts.start();
            let spec = &self.specs[i];
            let mut mem = tr.span("isa.mem_clone", |_| spec.memory.clone());
            let opts = FunctionalOptions {
                collect_records: true,
                ..FunctionalOptions::default()
            };
            let run = tr.span("sim.engine.run", |_| {
                run_functional(&spec.program, spec.launch, &mut mem, &opts)
            });
            let verdict = tr.span("kernels.verify", |_| spec.verify(&mem));
            checks.check_result(verdict, spec.name);
            let records = &run.records;
            let corr: Vec<_> = schemes
                .iter()
                .map(|s| tr.span("core.fig3_corr", |_| carry_correlation(records, *s)))
                .collect();
            let stats = tr.span("core.fig5_sweep", |_| sweep(records, &self.points));
            let st2 = &stats[self.st2_point].1;
            rates[i] = st2.misprediction_rate();

            let n = records.len() as u64;
            out.winst += run.warp_instructions;
            for (name, v) in [
                ("sim.engine.winst", run.warp_instructions),
                ("sim.engine.records", n),
                ("core.fig3.records", n * schemes.len() as u64),
                ("core.fig5.records", n * self.points.len() as u64),
            ] {
                *out.figures.entry(name).or_default() += v as f64;
            }
            add_adder_figures(&mut out.figures, st2);
            let compared = corr.iter().map(|c| c.compared).sum();
            out.golden.push(GoldenEntry::new(
                format!("{}/functional", spec.name),
                n,
                &(run.warp_instructions, &run.mix),
            ));
            out.golden.push(GoldenEntry::new(
                format!("{}/fig3", spec.name),
                compared,
                &corr,
            ));
            out.golden.push(GoldenEntry::new(
                format!("{}/fig5", spec.name),
                st2.ops,
                &stats,
            ));
            parts.end(i);
        }
        out.figures.insert(
            "model.st2_mispredict_rate",
            rates.iter().sum::<f64>() / rates.len() as f64,
        );
        out
    }
}
