//! Cross-crate integration for the warp-stall attribution profiler:
//! issue-slot accounting reconciles exactly against the clock at every
//! issue width, and the JSON kernel profile round-trips losslessly from a
//! real run.

use st2::prelude::*;

fn profiled_run(spec: &KernelSpec, cfg: &GpuConfig) -> (TimedOutput, KernelProfile) {
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let mut mem = spec.memory.clone();
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    spec.verify(&mem)
        .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
    let profile = KernelProfile::capture(&tele, spec.name, Some(&spec.program));
    (out, profile)
}

#[test]
fn stall_counters_reconcile_at_every_issue_width() {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    for width in [1u32, 2, 4] {
        for st2_on in [false, true] {
            let mut cfg = GpuConfig::scaled(2).with_issue_width(width);
            if st2_on {
                cfg = cfg.with_st2();
            }
            let (out, profile) = profiled_run(&spec, &cfg);
            for (i, sm) in profile.sms.iter().enumerate() {
                assert_eq!(
                    sm.cycles, out.cycles,
                    "width {width} st2 {st2_on}: SM{i} cycle coverage"
                );
                assert_eq!(
                    sm.slots,
                    out.cycles * u64::from(width),
                    "width {width} st2 {st2_on}: SM{i} slot total"
                );
                // The acceptance identity: attributed stalls fill exactly
                // the slots that did not issue.
                assert_eq!(
                    sm.stalled(),
                    sm.slots - sm.issued,
                    "width {width} st2 {st2_on}: SM{i} stall sum != cycles x width - issued"
                );
                debug_assert!(sm.fetch_oob == 0, "SM{i}: out-of-range fetches");
            }
        }
    }
}

#[test]
fn st2_runs_attribute_adder_repair_stalls() {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    let (_, baseline) = profiled_run(&spec, &GpuConfig::scaled(2));
    let (_, st2) = profiled_run(&spec, &GpuConfig::scaled(2).with_st2());
    let repair = |p: &KernelProfile| p.total().stalls[StallReason::AdderRepair.index()];
    assert_eq!(
        repair(&baseline),
        0,
        "baseline has no speculation to repair"
    );
    assert!(
        repair(&st2) > 0,
        "ST2 mispredicts on pathfinder must surface as AdderRepair stalls"
    );
    // Hotspots carry the adder's per-PC accuracy join.
    assert!(
        st2.pcs
            .iter()
            .any(|r| r.adder_ops > 0 && r.accuracy() < 1.0),
        "some hot PC mispredicts"
    );
}

#[test]
fn occupancy_timeline_accounts_every_slot() {
    let spec = st2::kernels::histogram::build(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (out, profile) = profiled_run(&spec, &cfg);
    assert!(!profile.occupancy.is_empty(), "timeline has intervals");
    let total_slots: u64 = profile.occupancy.iter().map(|p| p.total_slots).sum();
    let issued_slots: u64 = profile.occupancy.iter().map(|p| p.issued_slots).sum();
    assert_eq!(
        total_slots,
        out.cycles * u64::from(cfg.issue_width) * u64::from(cfg.num_sms),
        "interval slot totals cover the whole run"
    );
    assert_eq!(issued_slots, out.activity.warp_instructions);
    for pair in profile.occupancy.windows(2) {
        assert!(pair[0].cycle < pair[1].cycle, "intervals strictly ordered");
    }
}

#[test]
fn kernel_profile_json_round_trips_from_a_real_run() {
    let spec = st2::kernels::sortnets::build_k1(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (_, profile) = profiled_run(&spec, &cfg);
    let back = KernelProfile::from_json(&profile.to_json()).expect("profile JSON parses back");
    assert_eq!(back, profile, "JSON export must be lossless");
    // The renderer names the kernel, the breakdown and at least one
    // disassembled hot instruction.
    let text = profile.render(5);
    assert!(text.contains(&format!("kernel profile: {}", spec.name)));
    assert!(text.contains("stall breakdown"));
    assert!(profile.pcs.iter().any(|r| r.label.is_some()));
}
