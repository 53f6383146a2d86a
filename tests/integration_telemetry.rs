//! Cross-crate integration: telemetry × simulator × exporters.
//!
//! Covers the observability acceptance points: the Chrome trace parses
//! back as JSON with the expected schema, the JSONL dump carries the
//! named metrics including a non-empty interval series of adder
//! prediction accuracy, and telemetry (enabled or disabled) never
//! changes simulation results.

use proptest::prelude::*;
use st2::prelude::*;
use st2::telemetry::{chrome, json, jsonl, Telemetry, TelemetryConfig};

fn traced_run(spec: &KernelSpec, cfg: &GpuConfig) -> (Telemetry, TimedOutput, Vec<u8>) {
    let mut tele = Telemetry::for_run(cfg.num_sms as usize, TelemetryConfig::default());
    let mut mem = spec.memory.clone();
    let out = run_timed_with(
        &spec.program,
        spec.launch,
        &mut mem,
        cfg,
        RunOptions::with_telemetry(&mut tele),
    );
    (tele, out, mem.as_bytes().to_vec())
}

#[test]
fn chrome_trace_parses_and_interval_series_is_nonempty() {
    let spec = st2::kernels::pathfinder::build(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (tele, out, _) = traced_run(&spec, &cfg);

    // Chrome trace: valid JSON, traceEvents array, every event carries a
    // phase, and the cycle span matches the run.
    let trace = chrome::export(&tele, spec.name);
    let v = json::parse(&trace).expect("Chrome trace is valid JSON");
    let events = v
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents is an array");
    assert!(events.len() > 100, "a real run produces many events");
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|p| p.as_str())
            .expect("every event has a phase");
        assert!(
            matches!(ph, "M" | "X" | "i" | "C" | "b" | "n" | "e"),
            "unexpected phase {ph:?}"
        );
        // Async fill milestones ("n") and ends ("e") may land past the
        // final cycle: a store's line fill can still be in flight when
        // the last warp retires.
        if !matches!(ph, "M" | "n" | "e") {
            let ts = e.get("ts").and_then(json::Value::as_f64).expect("ts");
            assert!(ts <= out.cycles as f64, "event past the end of the run");
        }
    }

    // Request lifetimes ride along as async spans: every begin has a
    // matching end on the same id, and the memory timeline's counter
    // tracks are present.
    let phase_count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
            .count()
    };
    assert!(phase_count("b") > 0, "run produces fill spans");
    assert_eq!(phase_count("b"), phase_count("e"), "spans pair up");
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("C")
                && e.get("name").and_then(|n| n.as_str()) == Some("mem.mshr_occupied_cycles")
        }),
        "memory timeline exported as counter track"
    );

    // Interval series: adder prediction accuracy over time, non-empty,
    // values in [0, 1].
    let acc = tele
        .series()
        .column("adder.accuracy")
        .expect("accuracy column exists");
    assert!(!acc.is_empty(), "interval series must be non-empty");
    assert!(acc.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));

    // JSONL: every line parses; ≥5 named metrics; the accuracy series is
    // present with its points.
    let dump = jsonl::export(&tele, spec.name);
    let mut metric_names = Vec::new();
    let mut saw_series = false;
    for line in dump.lines() {
        let v = json::parse(line).expect("JSONL line parses");
        let ty = v.get("type").and_then(|t| t.as_str()).unwrap_or("");
        if matches!(ty, "counter" | "gauge" | "histogram") {
            metric_names.push(v.get("name").unwrap().as_str().unwrap().to_string());
        }
        if ty == "series" && v.get("name").and_then(|n| n.as_str()) == Some("adder.accuracy") {
            let points = v.get("points").unwrap().as_array().unwrap();
            assert!(!points.is_empty(), "accuracy series has points");
            saw_series = true;
        }
    }
    assert!(
        saw_series,
        "JSONL carries the adder.accuracy interval series"
    );
    metric_names.sort();
    metric_names.dedup();
    assert!(
        metric_names.len() >= 5,
        "JSONL names at least 5 metrics, got {metric_names:?}"
    );
    for required in [
        "adder.ops",
        "adder.mispredicts",
        "sched.warp_instructions",
        "mem.l1_accesses",
        "crf.conflicts",
    ] {
        assert!(
            metric_names.iter().any(|n| n == required),
            "missing metric {required}"
        );
    }
}

#[test]
fn telemetry_counters_agree_with_activity_counters() {
    // The telemetry registry observes the same run the simulator counts:
    // the shared quantities must agree exactly.
    let spec = st2::kernels::histogram::build(Scale::Test);
    let cfg = GpuConfig::scaled(2).with_st2();
    let (tele, out, _) = traced_run(&spec, &cfg);
    let c = |name: &str| tele.registry().counter_by_name(name).unwrap_or(0);
    assert_eq!(c("sched.warp_instructions"), out.activity.warp_instructions);
    assert_eq!(c("adder.ops"), out.activity.adder.ops);
    assert_eq!(c("adder.mispredicts"), out.activity.adder.mispredicted_ops);
    assert_eq!(c("crf.reads"), out.activity.crf_reads);
    assert_eq!(c("crf.writes"), out.activity.crf_writes);
    assert_eq!(c("crf.conflicts"), out.activity.crf_conflicts);
    assert_eq!(c("mem.l1_accesses"), out.activity.l1_accesses);
    assert_eq!(c("mem.l1_misses"), out.activity.l1_misses);
    assert_eq!(c("mem.l2_misses"), out.activity.l2_misses);
    assert_eq!(c("mem.dram_accesses"), out.activity.dram_accesses);
    assert_eq!(tele.cycles(), out.cycles);
}

proptest! {
    // Telemetry must be a pure observer: enabled vs disabled collectors
    // produce identical cycles, identical ActivityCounters and identical
    // memory contents, across kernels and configurations.
    #[test]
    fn enabled_vs_disabled_never_changes_results(
        kernel_idx in 0usize..4,
        sms in 1u32..3,
        st2_on in any::<bool>(),
    ) {
        let spec = match kernel_idx {
            0 => st2::kernels::pathfinder::build(Scale::Test),
            1 => st2::kernels::histogram::build(Scale::Test),
            2 => st2::kernels::sortnets::build_k1(Scale::Test),
            _ => st2::kernels::qrng::build_k1(Scale::Test),
        };
        let mut cfg = GpuConfig::scaled(sms);
        if st2_on {
            cfg = cfg.with_st2();
        }

        let mut mem_plain = spec.memory.clone();
        let plain = run_timed(&spec.program, spec.launch, &mut mem_plain, &cfg);

        let (tele, traced, mem_traced) = traced_run(&spec, &cfg);

        prop_assert_eq!(plain.cycles, traced.cycles);
        prop_assert_eq!(&plain.activity, &traced.activity);
        prop_assert_eq!(mem_plain.as_bytes(), &mem_traced[..]);
        if st2_on {
            prop_assert!(tele.registry().counter_by_name("adder.ops").unwrap_or(0) > 0);
        }
    }
}
