//! `chip80_starved`: a memory-bound pointer chase on the 80-SM
//! `titan_v_full` chip (8 L2 partitions behind the crossbar) with MSHRs
//! cut to 8 per SM and ST² off.
//!
//! Each thread starts at its own 8-byte slot and follows `HOPS` loads.
//! Every word of the chain table holds the address of its successor,
//! one or two 32 KiB rows further on; the seed picks one or two per
//! 256-byte chunk, so a warp's 32 lanes stay coalesced while the seed
//! reshapes which rows (and L2 partitions) the chains visit. Each thread
//! stores the sum of the addresses it visited. The expected sums come
//! from a CPU walk of the same table at setup, as the suite kernels
//! compute their CPU references when they are built.

use st2::prelude::*;

use super::{add_timed_figures, Checks, GoldenEntry, Parts, PassOutcome, SplitMix64, Workload};
use crate::trace::Tracer;

/// Loads per thread.
const HOPS: u64 = 8;
/// The chain stride unit.
const ROW: u64 = 32 * 1024;
/// Bytes of chain table one warp reads per load (32 lanes × 8 bytes).
const CHUNK: u64 = 256;
/// Thread blocks per SM and threads per block.
const BLOCKS_PER_SM: u32 = 4;
const BLOCK_THREADS: u32 = 256;

/// The generated inputs of one `chip80_starved` run.
#[derive(Debug, Clone)]
pub struct ChainImage {
    /// The pointer-chasing kernel.
    pub program: Program,
    /// Its launch geometry.
    pub launch: LaunchConfig,
    /// Chain table followed by the per-thread output slots.
    pub memory: MemImage,
    /// Byte offset of the output slots.
    pub out_base: u64,
    /// Each thread's expected sum (the CPU reference).
    pub expected: Vec<u64>,
}

impl ChainImage {
    /// Checks every thread's stored sum against the CPU reference.
    ///
    /// # Errors
    ///
    /// Names the first thread whose sum differs.
    pub fn verify(&self, after: &MemImage) -> Result<(), String> {
        for (t, &want) in (0u64..).zip(&self.expected) {
            let got = after.read_u64(self.out_base + t * 8);
            if got != want {
                return Err(format!("thread {t}: stored {got:#x}, expected {want:#x}"));
            }
        }
        Ok(())
    }
}

/// Builds the kernel and the seeded chain table for a `num_sms` chip.
#[must_use]
pub fn chain_image(num_sms: u32, seed: u64) -> ChainImage {
    let launch = LaunchConfig::new(num_sms * BLOCKS_PER_SM, BLOCK_THREADS);
    let threads = launch.total_threads();
    // Every hop is read from below this bound: a thread starts under
    // `threads * 8` and moves at most two rows per hop after the first.
    let table_bytes = threads * 8 + (HOPS - 1) * 2 * ROW;
    let out_base = table_bytes;
    let mut memory = MemImage::new(out_base + threads * 8);
    let mut rng = SplitMix64::new(seed);
    for chunk in 0..table_bytes / CHUNK {
        let stride = ROW * (1 + (rng.next_u64() & 1));
        for word in 0..CHUNK / 8 {
            let addr = chunk * CHUNK + word * 8;
            memory.write_u64(addr, addr + stride);
        }
    }

    let mut k = KernelBuilder::new("chip80_chain");
    let tid = k.special(Special::GlobalTid);
    let slot = k.reg();
    k.imul(slot, tid.into(), Operand::Imm(8));
    let addr = k.reg();
    k.mov(addr, slot.into());
    let acc = k.reg();
    k.mov(acc, Operand::Imm(0));
    k.for_range(Operand::Imm(0), Operand::Imm(HOPS as i64), |k, _| {
        let next = k.reg();
        k.ld_global_u64(next, addr, 0);
        k.iadd(acc, acc.into(), next.into());
        k.mov(addr, next.into());
    });
    k.st_global_u64(acc.into(), slot, out_base as i64);

    let expected = (0..threads)
        .map(|t| {
            let (mut addr, mut sum) = (t * 8, 0u64);
            for _ in 0..HOPS {
                addr = memory.read_u64(addr);
                sum = sum.wrapping_add(addr);
            }
            sum
        })
        .collect();
    ChainImage {
        program: k.finish(),
        launch,
        memory,
        out_base,
        expected,
    }
}

pub struct Chip80 {
    seed: u64,
    cfg: GpuConfig,
    image: ChainImage,
}

impl Chip80 {
    /// The workload's chip: 80 SMs, MSHRs cut to 8, ST² off, one
    /// simulation thread.
    #[must_use]
    pub fn config() -> GpuConfig {
        GpuConfig::titan_v_full()
            .with_mshr_entries(8)
            .with_sim_threads(1)
    }

    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let cfg = Self::config();
        let image = tr.span("isa.chain_image", |_| chain_image(cfg.num_sms, seed));
        Chip80 { seed, cfg, image }
    }
}

impl Workload for Chip80 {
    fn scale(&self) -> &'static str {
        "generated"
    }

    fn configs(&self) -> Vec<(&'static str, GpuConfig)> {
        vec![("baseline", self.cfg)]
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        parts: &mut Parts,
        _order: Option<u64>,
        checks: &mut Checks,
    ) -> PassOutcome {
        // One kernel: the whole pass is one part.
        parts.start();
        let img = &self.image;
        let mut mem = tr.span("isa.mem_clone", |_| img.memory.clone());
        let run = tr.span("sim.timed.base", |_| {
            run_timed_with(
                &img.program,
                img.launch,
                &mut mem,
                &self.cfg,
                RunOptions::default(),
            )
        });
        let verdict = tr.span("bench.verify", |_| img.verify(&mem));
        checks.check_result(verdict, "chip80_starved");
        let mut out = PassOutcome {
            winst: run.activity.warp_instructions,
            ..PassOutcome::default()
        };
        add_timed_figures(&mut out.figures, &run, &self.cfg);
        out.golden.push(GoldenEntry::new(
            format!("seed={}", self.seed),
            run.cycles,
            &run.activity,
        ));
        // The instruction stream does not depend on the seed.
        out.golden.push(GoldenEntry::new(
            "shape".into(),
            run.activity.warp_instructions,
            &run.activity.mix,
        ));
        parts.end(0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_image_and_stats_other_seed_other_image() {
        let cfg = Chip80::config();
        let a = chain_image(cfg.num_sms, 11);
        let b = chain_image(cfg.num_sms, 11);
        let c = chain_image(cfg.num_sms, 12);
        assert_eq!(
            a.memory.as_bytes(),
            b.memory.as_bytes(),
            "same seed, same bytes"
        );
        assert_ne!(
            a.memory.as_bytes(),
            c.memory.as_bytes(),
            "other seed, other image"
        );
        assert_eq!(
            format!("{:?}", a.program),
            format!("{:?}", c.program),
            "the seed reshapes data, not code"
        );

        let run = |img: &ChainImage| {
            let mut mem = img.memory.clone();
            let out = run_timed(&img.program, img.launch, &mut mem, &cfg);
            img.verify(&mem).expect("chain sums verify");
            out
        };
        let (ra, rb) = (run(&a), run(&b));
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.activity, rb.activity);
        assert_eq!(
            (ra.sm_sleep_cycles, ra.mem_skip_cycles, ra.ff_wakeups),
            (rb.sm_sleep_cycles, rb.mem_skip_cycles, rb.ff_wakeups)
        );
    }

    #[test]
    fn verify_catches_a_wrong_sum() {
        let img = chain_image(1, 3);
        let mut mem = img.memory.clone();
        let _ = run_timed(&img.program, img.launch, &mut mem, &GpuConfig::scaled(1));
        assert_eq!(img.verify(&mem), Ok(()));
        mem.write_u64(img.out_base + 8, 0);
        assert!(img.verify(&mem).unwrap_err().starts_with("thread 1:"));
    }
}
