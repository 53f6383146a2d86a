//! Cross-crate determinism: the event-driven timed driver (the wake
//! calendar, `GpuConfig::event_driven`, on by default) must be
//! **bit-identical** to the lockstep reference — same cycles, same
//! activity counters, same memory, same telemetry and profiles — on real
//! suite kernels, baseline and ST² alike.
//!
//! This is the contract that makes `event_driven` a pure wall-clock knob:
//! every figure and table of the reproduction runs on the fast path
//! without a tolerance budget.
//!
//! One timed run is serial; parallelism lives at the job level, with
//! independent kernels or configs on separate host threads. The
//! `*_across_threads` / `parallel_*` tests pin that contract: the same
//! jobs run on 2 or 4 threads reproduce their serial results bit for
//! bit, so concurrent runs share no state.

use st2::prelude::*;

/// A cross-section of the suite: memory-bound (pathfinder), shared-memory
/// heavy (histo_K1), branch-structured (sortNets_K1) and ALU-bound
/// (qrng_K1).
const KERNELS: [&str; 4] = ["pathfinder", "histo_K1", "sortNets_K1", "qrng_K1"];

fn spec_by_name(name: &str) -> KernelSpec {
    suite(Scale::Test)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("suite kernel {name} missing"))
}

fn timed(spec: &KernelSpec, cfg: &GpuConfig) -> (TimedOutput, Vec<u8>) {
    let mut mem = spec.memory.clone();
    let out = run_timed(&spec.program, spec.launch, &mut mem, cfg);
    (out, mem.as_bytes().to_vec())
}

/// A deliberately starved memory subsystem: a tiny MSHR file plus
/// single-request L2/DRAM bandwidth keeps the in-flight tracking, FIFO
/// queueing and throttle back-pressure paths hot in every drain.
fn tight_memory_cfg() -> GpuConfig {
    GpuConfig::scaled(4)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(1)
}

/// [`tight_memory_cfg`] sharded across `parts` L2 partitions. `l2_bw`
/// scales with the partition count only because `validate` requires at
/// least one L2 slot per partition — each partition still owns exactly
/// one request per cycle, so every lane stays starved.
fn tight_partitioned_cfg(parts: u32) -> GpuConfig {
    GpuConfig::scaled(4)
        .with_mshr_entries(4)
        .with_dram_bw(1)
        .with_l2_bw(parts)
        .with_l2_partitions(parts)
}

/// Hard-coded counters of one kernel on one starved config: the
/// activity, fill-latency histogram, MSHR occupancy integral and stage
/// waits a run must reproduce exactly.
struct Golden {
    name: &'static str,
    cycles: u64,
    warp_instructions: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    dram_accesses: u64,
    mshr_merges: u64,
    mem_throttle: u64,
    bw_starved_cycles: u64,
    noc_flits: u64,
    fill_count: u64,
    fill_p50: u64,
    fill_p95: u64,
    fill_max: u64,
    mshr_occupied_cycles: u64,
    mshr_wait_cycles: u64,
    xbar_hops: u64,
    xbar_wait_cycles: u64,
}

/// Runs every golden's kernel on `cfg` with telemetry on and checks each
/// pinned counter.
fn assert_goldens(cfg: &GpuConfig, goldens: &[Golden]) {
    for g in goldens {
        let spec = spec_by_name(g.name);
        let mut mem = spec.memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        let name = format!("{} parts={}", g.name, cfg.l2_partitions);
        let a = &out.activity;
        assert_eq!(out.cycles, g.cycles, "{name}: cycles");
        assert_eq!(a.warp_instructions, g.warp_instructions, "{name}: insts");
        assert_eq!(a.l1_accesses, g.l1_accesses, "{name}: l1_accesses");
        assert_eq!(a.l1_misses, g.l1_misses, "{name}: l1_misses");
        assert_eq!(a.l2_accesses, g.l2_accesses, "{name}: l2_accesses");
        assert_eq!(a.l2_misses, g.l2_misses, "{name}: l2_misses");
        assert_eq!(a.dram_accesses, g.dram_accesses, "{name}: dram_accesses");
        assert_eq!(a.mshr_merges, g.mshr_merges, "{name}: mshr_merges");
        assert_eq!(a.mem_throttle, g.mem_throttle, "{name}: mem_throttle");
        assert_eq!(
            a.bw_starved_cycles, g.bw_starved_cycles,
            "{name}: bw_starved_cycles"
        );
        assert_eq!(a.noc_flits, g.noc_flits, "{name}: noc_flits");
        assert_eq!(a.xbar_hops, g.xbar_hops, "{name}: xbar_hops");
        assert_eq!(
            a.xbar_wait_cycles, g.xbar_wait_cycles,
            "{name}: xbar_wait_cycles"
        );
        let r = tele.registry();
        let fill = r
            .histogram_by_name("mem.fill_latency")
            .expect("fill histogram");
        assert_eq!(fill.count(), g.fill_count, "{name}: fill count");
        assert_eq!(fill.p50(), g.fill_p50, "{name}: fill p50");
        assert_eq!(fill.p95(), g.fill_p95, "{name}: fill p95");
        assert_eq!(fill.max(), g.fill_max, "{name}: fill max");
        assert_eq!(
            tele.mem_occupied_cycles(),
            g.mshr_occupied_cycles,
            "{name}: MSHR occupancy integral"
        );
        assert_eq!(
            r.counter_by_name("mem.mshr_wait_cycles"),
            Some(g.mshr_wait_cycles),
            "{name}: mshr_wait_cycles"
        );
        assert_eq!(
            r.counter_by_name("mem.xbar_wait_cycles"),
            Some(g.xbar_wait_cycles),
            "{name}: telemetry xbar_wait_cycles"
        );
    }
}

#[test]
fn single_partition_reproduces_pre_crossbar_counters() {
    // Golden equivalence: with `l2_partitions = 1` the crossbar is
    // bypassed (no hops, no port waits) and the sharded memory
    // subsystem must reproduce the monolithic model bit-for-bit. These
    // constants were captured on the starved config before the
    // partition refactor landed; a drift here means the P=1 degenerate
    // path changed behaviour, not just shape.
    let cfg = tight_partitioned_cfg(1);
    assert_eq!(
        cfg,
        tight_memory_cfg().with_l2_partitions(1),
        "tight_partitioned_cfg(1) must equal the pre-refactor starved config"
    );
    assert_goldens(
        &cfg,
        &[
            Golden {
                name: "pathfinder",
                cycles: 8975,
                warp_instructions: 2240,
                l1_accesses: 68,
                l1_misses: 68,
                l2_accesses: 68,
                l2_misses: 68,
                dram_accesses: 68,
                mshr_merges: 0,
                mem_throttle: 0,
                bw_starved_cycles: 38,
                noc_flits: 340,
                fill_count: 68,
                fill_p50: 423,
                fill_p95: 423,
                fill_max: 423,
                mshr_occupied_cycles: 26928,
                mshr_wait_cycles: 0,
                xbar_hops: 0,
                xbar_wait_cycles: 0,
            },
            Golden {
                name: "histo_K1",
                cycles: 43200,
                warp_instructions: 1956,
                l1_accesses: 8320,
                l1_misses: 384,
                l2_accesses: 384,
                l2_misses: 384,
                dram_accesses: 384,
                mshr_merges: 0,
                mem_throttle: 654,
                bw_starved_cycles: 38,
                noc_flits: 1920,
                fill_count: 384,
                fill_p50: 1023,
                fill_p95: 3778,
                fill_max: 3778,
                mshr_occupied_cycles: 161323,
                mshr_wait_cycles: 249419,
                xbar_hops: 0,
                xbar_wait_cycles: 0,
            },
        ],
    );
}

#[test]
fn four_partitions_reproduce_pinned_counters() {
    // The multi-partition golden: four address-sliced partitions, each
    // with one MSHR entry per SM and one L2/DRAM slot per cycle, so every
    // fill crosses the crossbar and the per-partition MSHR slices
    // throttle issue. The P=1 golden cannot see a drift in partition
    // routing, per-partition drain order or crossbar accounting; these
    // constants can. Captured before the memory round was restructured
    // into a direct per-request walk over the partitions.
    assert_goldens(
        &tight_partitioned_cfg(4),
        &[
            Golden {
                name: "pathfinder",
                cycles: 16114,
                warp_instructions: 2240,
                l1_accesses: 68,
                l1_misses: 68,
                l2_accesses: 68,
                l2_misses: 68,
                dram_accesses: 68,
                mshr_merges: 0,
                mem_throttle: 540,
                bw_starved_cycles: 0,
                noc_flits: 340,
                fill_count: 68,
                fill_p50: 420,
                fill_p95: 420,
                fill_max: 420,
                mshr_occupied_cycles: 27724,
                mshr_wait_cycles: 0,
                xbar_hops: 68,
                xbar_wait_cycles: 0,
            },
            Golden {
                name: "histo_K1",
                cycles: 100899,
                warp_instructions: 1956,
                l1_accesses: 8320,
                l1_misses: 384,
                l2_accesses: 384,
                l2_misses: 384,
                dram_accesses: 384,
                mshr_merges: 0,
                mem_throttle: 1520,
                bw_starved_cycles: 0,
                noc_flits: 1920,
                fill_count: 384,
                fill_p50: 511,
                fill_p95: 4095,
                fill_max: 5460,
                mshr_occupied_cycles: 161280,
                mshr_wait_cycles: 262080,
                xbar_hops: 384,
                xbar_wait_cycles: 0,
            },
        ],
    );
}

#[test]
fn memory_bound_kernel_reacts_to_memory_knobs() {
    // The memory model must be load-bearing on a real suite kernel:
    // sgemm's tiled loads overlap on shared lines (nonzero MSHR merges)
    // and starving DRAM bandwidth costs cycles rather than being
    // absorbed by magic fixed latencies.
    let spec = spec_by_name("sgemm");
    let base = GpuConfig::scaled(4);
    let (full, _) = timed(&spec, &base);
    assert!(
        full.activity.mshr_merges > 0,
        "sgemm never merged a miss into an in-flight fill"
    );
    let (starved, _) = timed(&spec, &base.with_dram_bw(1).with_l2_bw(1));
    assert!(
        starved.cycles > full.cycles,
        "cutting DRAM bandwidth did not cost cycles ({} vs {})",
        starved.cycles,
        full.cycles
    );
}

#[test]
fn event_driven_fast_forward_is_bit_identical() {
    // The wake calendar must be invisible in every observable: across
    // the suite cross-section, the default and starved memory configs,
    // {1, 4} L2 partitions and ST² off/on, the event-driven run
    // reproduces the lockstep reference's cycles, activity counters,
    // results memory, telemetry counters, latency histograms, interval
    // series and per-PC profiles bit for bit.
    for name in KERNELS {
        let spec = spec_by_name(name);
        for base in [
            GpuConfig::scaled(4),
            tight_partitioned_cfg(1),
            tight_partitioned_cfg(4),
        ] {
            for st2_on in [false, true] {
                let cfg = if st2_on { base.with_st2() } else { base };
                let observe = |cfg: &GpuConfig| {
                    let mut mem = spec.memory.clone();
                    let mut tele =
                        Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
                    let out = run_timed_with(
                        &spec.program,
                        spec.launch,
                        &mut mem,
                        cfg,
                        RunOptions::with_telemetry(&mut tele),
                    );
                    let profile = KernelProfile::capture(&tele, name, Some(&spec.program));
                    (out, mem, tele, profile)
                };
                let ctx = format!(
                    "{name}: parts={} mshr={} st2={st2_on}",
                    cfg.l2_partitions, cfg.mshr_entries
                );
                let (ref_out, ref_mem, ref_tele, ref_profile) =
                    observe(&cfg.with_event_driven(false));
                assert_eq!(ref_out.sm_sleep_cycles, 0, "{ctx}: lockstep slept");
                assert_eq!(ref_out.ff_wakeups, 0, "{ctx}: lockstep woke");
                assert_eq!(ref_out.mem_skip_cycles, 0, "{ctx}: lockstep skipped");
                let (out, mem, tele, profile) = observe(&cfg);
                spec.verify(&mem)
                    .unwrap_or_else(|e| panic!("{ctx}: failed verification: {e}"));
                assert_eq!(out.cycles, ref_out.cycles, "{ctx}: cycles");
                assert_eq!(out.activity, ref_out.activity, "{ctx}: activity");
                assert_eq!(mem.as_bytes(), ref_mem.as_bytes(), "{ctx}: results memory");
                assert_eq!(
                    tele.registry().counters(),
                    ref_tele.registry().counters(),
                    "{ctx}: telemetry counters"
                );
                assert_eq!(
                    tele.registry().histograms(),
                    ref_tele.registry().histograms(),
                    "{ctx}: latency histograms"
                );
                assert_eq!(
                    tele.series().points(),
                    ref_tele.series().points(),
                    "{ctx}: accuracy/IPC series"
                );
                assert_eq!(
                    tele.mem_series().points(),
                    ref_tele.mem_series().points(),
                    "{ctx}: memory timeline"
                );
                assert_eq!(
                    tele.mem_occupied_cycles(),
                    ref_tele.mem_occupied_cycles(),
                    "{ctx}: MSHR occupancy integral"
                );
                // Parked SMs credit their slept cycles through
                // `replay_parked`, so the integer energy timeline —
                // SM-resident cycles included — must not see the
                // calendar either.
                assert_eq!(
                    tele.energy_series().points(),
                    ref_tele.energy_series().points(),
                    "{ctx}: energy timeline"
                );
                assert_eq!(
                    tele.energy_sm_cycles(),
                    ref_tele.energy_sm_cycles(),
                    "{ctx}: SM-resident cycle integral"
                );
                assert_eq!(tele.cycles(), ref_tele.cycles(), "{ctx}: final cycles");
                assert_eq!(profile, ref_profile, "{ctx}: profile");
                // The profile itself balances: every SM's slots are
                // issued or attributed to exactly one stall reason.
                // Suite programs never run off the end of their
                // instruction stream.
                assert!(profile.reconciles(), "{ctx}: profile unbalanced");
                assert_eq!(profile.total().fetch_oob, 0, "{ctx}: out-of-range fetches");
                for sm in &profile.sms {
                    assert_eq!(
                        sm.slots,
                        out.cycles * u64::from(cfg.issue_width),
                        "{ctx}: slot accounting diverged from cycles x issue_width"
                    );
                }
                // The starved configs actually exercise the memory
                // channels: fills happened and their latency
                // distribution is observable.
                if cfg.mshr_entries == 4 {
                    let fill = tele
                        .registry()
                        .histogram_by_name("mem.fill_latency")
                        .expect("fill latency histogram registered");
                    assert!(fill.count() > 0, "{ctx}: no fills recorded");
                    assert!(fill.p95() > 0, "{ctx}: fill p95 is zero under starvation");
                }
            }
        }
    }
}

#[test]
fn starved_config_engages_the_wake_calendar() {
    // Equivalence alone could hold vacuously (nothing ever sleeps);
    // this pins that a memory-starved config actually parks SMs on the
    // calendar and wakes them, while the step-everything path reports
    // zero and the same cycle count.
    let spec = spec_by_name("pathfinder");
    let cfg = tight_memory_cfg();
    assert!(cfg.event_driven, "fast-forward must default on");
    let (on, _) = timed(&spec, &cfg);
    assert!(
        on.sm_sleep_cycles > 0,
        "starved run never parked an SM on the wake calendar"
    );
    assert!(on.ff_wakeups > 0, "parked SMs were never woken");
    let (off, _) = timed(&spec, &cfg.with_event_driven(false));
    assert_eq!(off.sm_sleep_cycles, 0);
    assert_eq!(off.ff_wakeups, 0);
    assert_eq!(on.cycles, off.cycles, "fast-forward changed timing");
    assert_eq!(on.activity, off.activity, "fast-forward changed activity");
}

#[test]
fn starved_config_engages_the_memory_calendar() {
    // Same vacuity guard for the memory side: on a starved config most
    // cycles have no due fill and no fresh request, so the calendar
    // must actually skip drain/retire rounds — while the lockstep
    // reference reports zero skips and identical timing.
    let spec = spec_by_name("pathfinder");
    let cfg = tight_memory_cfg();
    let (on, _) = timed(&spec, &cfg);
    assert!(
        on.mem_skip_cycles > 0,
        "starved run never skipped a drain round"
    );
    let (off, _) = timed(&spec, &cfg.with_event_driven(false));
    assert_eq!(off.mem_skip_cycles, 0, "lockstep skipped");
    assert_eq!(on.cycles, off.cycles, "timing changed");
    assert_eq!(on.activity, off.activity, "activity changed");
}

#[test]
fn sleep_accounting_is_exact_at_termination_while_parked() {
    // A starved run ends with most SMs parked (each SM that drains its
    // last block goes non-resident and sleeps until the global exit):
    // the exit-time replay must credit slept cycles only up to the
    // final cycle, never past it. Two integrals pin that from both
    // sides: the driver-side activity split and the telemetry-side
    // SM-resident energy integral each must equal exactly
    // `num_sms × cycles`.
    let spec = spec_by_name("pathfinder");
    for parts in [1u32, 4] {
        let cfg = tight_partitioned_cfg(parts);
        let mut mem = spec.memory.clone();
        let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
        let out = run_timed_with(
            &spec.program,
            spec.launch,
            &mut mem,
            &cfg,
            RunOptions::with_telemetry(&mut tele),
        );
        let ctx = format!("parts={parts}");
        assert!(
            out.sm_sleep_cycles > 0,
            "{ctx}: run never parked an SM — the exit replay is untested"
        );
        let expect = u64::from(cfg.num_sms) * out.cycles;
        assert_eq!(
            out.activity.active_sm_cycles + out.activity.idle_sm_cycles,
            expect,
            "{ctx}: driver activity split drifted from num_sms × cycles"
        );
        assert_eq!(
            tele.energy_sm_cycles(),
            expect,
            "{ctx}: SM-resident energy integral drifted from num_sms × cycles"
        );
    }
}

/// One timed run with telemetry on: the output, the results memory and
/// the collector, plus the profile captured from it.
struct Run {
    out: TimedOutput,
    mem: MemImage,
    tele: Telemetry,
    profile: KernelProfile,
}

fn observe(spec: &KernelSpec, cfg: &GpuConfig) -> Run {
    let mut mem = spec.memory.clone();
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    let profile = KernelProfile::capture(&tele, spec.name, Some(&spec.program));
    Run {
        out,
        mem,
        tele,
        profile,
    }
}

/// Runs every `(kernel, config)` job on `threads` host threads, thread
/// `t` taking jobs `t, t + threads, ...` — the job-level parallelism the
/// suite binaries use (one thread per kernel). Results come back in job
/// order, so `threads = 1` is the serial reference.
fn on_threads(threads: usize, jobs: &[(KernelSpec, GpuConfig)]) -> Vec<Run> {
    let mut runs: Vec<(usize, Run)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..jobs.len())
                        .step_by(threads)
                        .map(|i| (i, observe(&jobs[i].0, &jobs[i].1)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("simulation job panicked"))
            .collect()
    });
    runs.sort_by_key(|(i, _)| *i);
    runs.into_iter().map(|(_, r)| r).collect()
}

/// Every suite cross-section kernel under every config in `cfgs`.
fn jobs(cfgs: &[GpuConfig]) -> Vec<(KernelSpec, GpuConfig)> {
    KERNELS
        .iter()
        .flat_map(|name| cfgs.iter().map(move |cfg| (spec_by_name(name), *cfg)))
        .collect()
}

fn job_ctx(job: &(KernelSpec, GpuConfig), threads: usize) -> String {
    let (spec, cfg) = job;
    format!(
        "{}: parts={} mshr={} st2={} threads={threads}",
        spec.name,
        cfg.l2_partitions,
        cfg.mshr_entries,
        cfg.speculation.is_some()
    )
}

#[test]
fn partitioned_runs_are_bit_identical_across_threads() {
    // The partitions x threads matrix: one timed run is serial, so
    // running the partitioned configs concurrently on 2 or 4 host
    // threads must share no state between runs — every run reproduces
    // its serial cycles, activity and results memory.
    let jobs = jobs(&[
        tight_partitioned_cfg(1),
        tight_partitioned_cfg(2),
        tight_partitioned_cfg(4),
    ]);
    let serial = on_threads(1, &jobs);
    for (job, run) in jobs.iter().zip(&serial) {
        // Partitioned results still satisfy the CPU reference.
        job.0
            .verify(&run.mem)
            .unwrap_or_else(|e| panic!("{}: failed verification: {e}", job_ctx(job, 1)));
    }
    for threads in [2, 4] {
        for ((job, s), p) in jobs.iter().zip(&serial).zip(on_threads(threads, &jobs)) {
            let ctx = job_ctx(job, threads);
            assert_eq!(s.out.cycles, p.out.cycles, "{ctx}: cycles");
            assert_eq!(s.out.activity, p.out.activity, "{ctx}: activity");
            assert_eq!(s.mem.as_bytes(), p.mem.as_bytes(), "{ctx}: results memory");
        }
    }
}

#[test]
fn parallel_timed_runs_are_bit_identical_to_serial() {
    // Job-level parallelism over the default, ST² and starved configs:
    // concurrent runs reproduce the serial cycles, activity counters,
    // sleep/skip counts and results memory, and satisfy the CPU
    // reference.
    let jobs = jobs(&[
        GpuConfig::scaled(4),
        GpuConfig::scaled(4).with_st2(),
        tight_memory_cfg(),
    ]);
    let serial = on_threads(1, &jobs);
    for threads in [2, 4] {
        for ((job, s), p) in jobs.iter().zip(&serial).zip(on_threads(threads, &jobs)) {
            let ctx = job_ctx(job, threads);
            assert_eq!(s.out.cycles, p.out.cycles, "{ctx}: cycles");
            assert_eq!(s.out.activity, p.out.activity, "{ctx}: activity");
            assert_eq!(s.out.sm_sleep_cycles, p.out.sm_sleep_cycles, "{ctx}: sleep");
            assert_eq!(s.out.mem_skip_cycles, p.out.mem_skip_cycles, "{ctx}: skips");
            assert_eq!(s.mem.as_bytes(), p.mem.as_bytes(), "{ctx}: results memory");
            job.0
                .verify(&p.mem)
                .unwrap_or_else(|e| panic!("{ctx}: failed verification: {e}"));
        }
    }
}

#[test]
fn parallel_profiles_are_bit_identical_to_serial() {
    // Per-PC hotspot tables, per-SM stall-reason counters and the
    // occupancy timeline of a run are untouched by runs on other
    // threads: the whole profile is bit-identical to the serial one.
    let jobs = jobs(&[
        GpuConfig::scaled(4),
        GpuConfig::scaled(4).with_st2(),
        tight_memory_cfg(),
    ]);
    let serial = on_threads(1, &jobs);
    for (job, s) in jobs.iter().zip(&serial) {
        let ctx = job_ctx(job, 1);
        // Suite programs never run off the end of their instruction
        // stream; a nonzero count means a control-flow bug.
        assert_eq!(
            s.profile.total().fetch_oob,
            0,
            "{ctx}: out-of-range fetches"
        );
        assert!(s.profile.reconciles(), "{ctx}: serial profile unbalanced");
        for sm in &s.profile.sms {
            assert_eq!(
                sm.slots,
                s.out.cycles * u64::from(job.1.issue_width),
                "{ctx}: slot accounting diverged from cycles x issue_width"
            );
        }
    }
    for threads in [2, 4] {
        for ((job, s), p) in jobs.iter().zip(&serial).zip(on_threads(threads, &jobs)) {
            assert_eq!(s.profile, p.profile, "{}: profile", job_ctx(job, threads));
        }
    }
}

#[test]
fn memory_telemetry_is_bit_identical_across_threads() {
    // The request-lifecycle channels — log2 latency histograms, the MSHR
    // occupancy / L2 / DRAM interval timeline, the queue-wait counters
    // and the energy timeline — of a starved memory subsystem are
    // bit-identical whether its runs go serially or concurrently.
    let jobs = jobs(&[tight_memory_cfg()]);
    let serial = on_threads(1, &jobs);
    for threads in [2, 4] {
        for ((job, s), p) in jobs.iter().zip(&serial).zip(on_threads(threads, &jobs)) {
            let ctx = job_ctx(job, threads);
            assert_eq!(
                s.tele.registry().histograms(),
                p.tele.registry().histograms(),
                "{ctx}: latency histograms"
            );
            assert_eq!(
                s.tele.mem_series().points(),
                p.tele.mem_series().points(),
                "{ctx}: memory timeline"
            );
            assert_eq!(
                s.tele.mem_occupied_cycles(),
                p.tele.mem_occupied_cycles(),
                "{ctx}: MSHR occupancy integral"
            );
            assert_eq!(
                s.tele.energy_series().points(),
                p.tele.energy_series().points(),
                "{ctx}: energy timeline"
            );
        }
    }
    // The starved config actually exercises the channels: fills
    // happened and their latency distribution is observable.
    for (job, s) in jobs.iter().zip(&serial) {
        let ctx = job_ctx(job, 1);
        let fill = s
            .tele
            .registry()
            .histogram_by_name("mem.fill_latency")
            .expect("fill latency histogram registered");
        assert!(fill.count() > 0, "{ctx}: no fills recorded");
        assert!(fill.p95() > 0, "{ctx}: fill p95 is zero under starvation");
    }
}

#[test]
fn parallel_telemetry_matches_serial_aggregates() {
    // Each run owns its collector, so concurrent ST² runs report the
    // serial telemetry counters, the full accuracy/IPC series (no merge
    // is involved, so even the IPC column is bit-exact) and final cycle.
    let jobs = jobs(&[GpuConfig::scaled(4).with_st2()]);
    let serial = on_threads(1, &jobs);
    for ((job, s), p) in jobs.iter().zip(&serial).zip(on_threads(2, &jobs)) {
        let ctx = job_ctx(job, 2);
        assert_eq!(s.out.cycles, p.out.cycles, "{ctx}: cycles");
        assert_eq!(s.out.activity, p.out.activity, "{ctx}: activity");
        assert_eq!(
            s.tele.registry().counters(),
            p.tele.registry().counters(),
            "{ctx}: telemetry counters"
        );
        assert_eq!(
            s.tele.series().column("adder.accuracy"),
            p.tele.series().column("adder.accuracy"),
            "{ctx}: accuracy series"
        );
        assert_eq!(
            s.tele.series().points(),
            p.tele.series().points(),
            "{ctx}: accuracy/IPC series"
        );
        assert_eq!(s.tele.cycles(), p.tele.cycles(), "{ctx}: final cycles");
    }
}
