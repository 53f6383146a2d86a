//! `st2-perfbench` — host-time benchmark of the ST² reproduction on the
//! paper's own workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! A run sets the workload up several times (the scaled median is `setup_s`),
//! then runs passes for `--seconds` on one simulation thread, checking
//! every output. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! interleaves untraced and traced passes, records a span around every
//! call the benchmark makes into a layer, writes the spans to
//! `.perfbench/<workload>-seed<n>.trace.json` and reports the per-layer
//! metrics. The last line of standard output is the JSON result.

mod cli;
mod golden;
mod manifest;
mod reference;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cli::{Command, RunArgs};
use golden::Golden;
use report::Measured;
use stats::PartTimes;
use trace::Tracer;
use workloads::{Checks, Parts, PassOutcome, SplitMix64, WorkloadKind};

/// The golden simulated-stat reference.
const GOLDEN: &str = include_str!("../golden.txt");
/// Setup repeats at least this often, and until this much time is spent.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Passes run at least this often, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".perfbench";

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Bless) => {
            bless();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            ExitCode::from(2)
        }
    }
}

fn run(args: &RunArgs) -> ExitCode {
    let golden = Golden::parse(GOLDEN).expect("perfbench/golden.txt parses");
    let kind = args.workload;
    println!(
        "== st2-perfbench {} (seed {}, {} s, trace {}) ==",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tr = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);

    // Setup, repeated, each repetition after a reference loop; only the
    // last repetition's workload is kept.
    let mut setup_s = Vec::new();
    let mut setup_ref_s = Vec::new();
    let mut workload = None;
    let setup_start = Instant::now();
    while setup_s.len() < MIN_SETUPS || setup_start.elapsed() < SETUP_BUDGET {
        drop(workload.take());
        setup_ref_s.push(reference::time_once());
        let t = Instant::now();
        let w = tr.span("bench.setup", |tr| kind.setup(args.seed, tr));
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("setup ran");

    let mut checks = Checks::default();
    print_manifest(
        kind,
        args.seed,
        workload.scale(),
        &workload.configs(),
        &mut checks,
    );

    // An untimed warm-up pass in suite order fills caches and finishes
    // lazy set-up; peak memory is read after it, so it does not depend on
    // the seeded kernel orders that follow.
    let mut first: Option<PassOutcome> = None;
    let warm = workload.pass(&mut untraced, &mut Parts::new(false), None, &mut checks);
    let mut uncovered = check_outcome(kind, &golden, warm, &mut first, &mut checks);
    let peak_rss_mib = manifest::peak_rss_mib().unwrap_or(0.0);

    // Passes, each kernel after a reference loop (the loops' time is
    // taken out of the pass).
    let mut pass_s = Vec::new();
    let mut part_times = PartTimes::default();
    let mut ref_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut order = SplitMix64::new(args.seed);
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    while pass_s.len() < MIN_PASSES || start.elapsed() < budget {
        let order_seed = Some(order.next_u64());
        let mut parts = Parts::new(true);
        let t = Instant::now();
        let out = workload.pass(&mut untraced, &mut parts, order_seed, &mut checks);
        let elapsed = t.elapsed().as_secs_f64() - parts.ref_s.iter().sum::<f64>();
        pass_s.push(elapsed);
        part_times.add(elapsed, &parts.times);
        ref_s.extend(parts.ref_s);
        uncovered += check_outcome(kind, &golden, out, &mut first, &mut checks);
        if args.trace {
            let t = Instant::now();
            let out = tr.span("bench.pass", |tr| {
                workload.pass(tr, &mut Parts::new(false), order_seed, &mut checks)
            });
            traced_pass_s.push(t.elapsed().as_secs_f64());
            uncovered += check_outcome(kind, &golden, out, &mut first, &mut checks);
            tr.span("bench.probe", |tr| workload.probe(tr));
        }
    }
    if uncovered > 0 {
        println!(
            "golden: seed {} is outside the blessed range 0..{}; checked pass-to-pass determinism and the seed-independent shape",
            args.seed,
            golden::BLESS_SEEDS
        );
    }

    let m = Measured {
        kind,
        setup_s,
        setup_ref_s,
        pass_s,
        typical_pass_s: part_times.typical_pass().expect("a pass ran"),
        traced_pass_s,
        ref_s,
        outcome: first.expect("a pass ran"),
        checks,
        spans: tr.spans().to_vec(),
        peak_rss_mib,
    };
    let values = if args.trace {
        print_layers(&m);
        if let Err(e) = write_spans(&m, args.seed) {
            eprintln!("cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
        report::per_layer(&m)
    } else {
        print_end_to_end(&m);
        report::end_to_end(&m)
    };
    println!(
        "checks: {} attempted, {} failed",
        m.checks.attempted, m.checks.failed
    );
    println!("{}", report::result_json(&m.checks, &values));
    ExitCode::SUCCESS
}

/// Checks a pass against the golden reference and against the first pass
/// (simulated figures and outputs must repeat exactly). Returns how many
/// outputs the reference does not cover.
fn check_outcome(
    kind: WorkloadKind,
    golden: &Golden,
    mut out: PassOutcome,
    first: &mut Option<PassOutcome>,
    checks: &mut Checks,
) -> usize {
    // Suite passes run their kernels in a seeded order; compare in key order.
    out.golden.sort_by(|a, b| a.key.cmp(&b.key));
    let uncovered = golden.check(kind.name(), &out.golden, checks);
    match first {
        Some(f) => checks.check(
            f.figures == out.figures && f.golden == out.golden && f.winst == out.winst,
            || {
                format!(
                    "{}: a pass's simulated figures differ from the first pass's",
                    kind.name()
                )
            },
        ),
        None => *first = Some(out),
    }
    uncovered
}

fn print_manifest(
    kind: WorkloadKind,
    seed: u64,
    scale: &str,
    configs: &[(&str, st2::prelude::GpuConfig)],
    checks: &mut Checks,
) {
    println!(
        "manifest: nproc={} rustc=\"{}\" git={} workload={} scale={scale} seed={seed} sim_threads=1",
        manifest::nproc(),
        manifest::rustc_version(),
        manifest::git_rev().unwrap_or_else(|| "none (not a git checkout)".into()),
        kind.name(),
    );
    if configs.is_empty() {
        println!("config: none (the functional engine takes no GpuConfig)");
    }
    for (label, cfg) in configs {
        println!(
            "config {label} hash={:016x} {cfg:?}",
            manifest::config_hash(cfg)
        );
        checks.check(cfg.sim_threads == 1, || {
            format!("config {label} is not pinned to one simulation thread")
        });
    }
}

fn print_end_to_end(m: &Measured) {
    for (label, xs) in [
        ("setup reference, raw s", &m.setup_ref_s),
        ("setup, raw s", &m.setup_s),
        ("pass reference, raw s", &m.ref_s),
        ("pass, raw s", &m.pass_s),
    ] {
        if let Some(s) = stats::summarize(xs) {
            println!("{label:<22} {s}");
        }
    }
    println!(
        "{:<22} {:.6} (sum of each kernel's median)",
        "typical pass, raw s", m.typical_pass_s
    );
    println!(
        "end-to-end metrics (host time scaled to the reference host, {} s per reference loop, exponent {}; tracing off):",
        reference::NOMINAL_S,
        reference::EXPONENT
    );
    for v in report::end_to_end(m) {
        println!("  {:<28} {:>18} {}", v.name, v.value.to_string(), v.unit);
    }
    println!("simulated-time figures (exact) and failures:");
    for v in report::model_figures(m) {
        let shown = match v.value.0 {
            Some(_) => v.value.to_string(),
            None => "n/a".into(),
        };
        println!("  {:<28} {:>18} {}", v.name, shown, v.unit);
    }
}

fn print_layers(m: &Measured) {
    let pass = stats::median(&m.traced_pass_s).unwrap_or(0.0);
    let (dominant, bypassed) = report::expectation(m.kind);
    let layers = report::layer_self_times(&m.spans);
    println!(
        "layer self time per traced pass (median of {}, pass {:.6} s):",
        m.traced_pass_s.len(),
        pass
    );
    for (layer, s) in &layers {
        println!("  {layer:<20} {s:>12.6} s {:>6.1} %", 100.0 * s / pass);
    }
    let top = layers
        .iter()
        .filter(|(l, _)| l != "bench.unattributed")
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("-", |(l, _)| l.as_str());
    println!(
        "dominant layer: {top} (predicted {dominant}){}",
        if top == dominant {
            ""
        } else {
            "  PREDICTION CONTRADICTED"
        }
    );
    let touched = report::touched_layers(&m.spans);
    for l in bypassed {
        let ok = !touched.contains(l);
        println!(
            "bypassed layer {l}: {}",
            if ok {
                "reads zero, as predicted"
            } else {
                "was called  PREDICTION CONTRADICTED"
            }
        );
    }
    println!("per-layer metrics (value, unit, better; moves <metric> on <workloads>, direction):");
    for (v, lm) in report::per_layer(m).iter().zip(report::PER_LAYER) {
        println!(
            "  {:<34} {:>18} {:<7} {:<6} moves {} on {}, {}",
            v.name,
            v.value.to_string(),
            v.unit,
            lm.better,
            lm.moves,
            lm.on,
            lm.direction
        );
    }
}

fn write_spans(m: &Measured, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{}-seed{seed}.trace.json", m.kind.name());
    std::fs::write(&path, trace::to_chrome_json(&m.spans))?;
    println!("spans: {} written to {path}", m.spans.len());
    Ok(())
}

/// Prints the golden reference for every workload (one pass each, every
/// blessed `chip80_starved` seed).
fn bless() {
    println!("# st2-perfbench golden simulated-stat reference: <workload> <key> <value> <digest>");
    println!("# Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --bless > perfbench/golden.txt");
    let mut tr = Tracer::new(false);
    for kind in WorkloadKind::ALL {
        let seeds = if kind == WorkloadKind::Chip80Starved {
            golden::BLESS_SEEDS
        } else {
            1
        };
        for seed in 0..seeds {
            let mut checks = Checks::default();
            let out =
                kind.setup(seed, &mut tr)
                    .pass(&mut tr, &mut Parts::new(false), None, &mut checks);
            assert_eq!(
                checks.failed,
                0,
                "{} seed {seed} fails its checks; not blessing",
                kind.name()
            );
            let mut entries: Vec<_> = out
                .golden
                .into_iter()
                .filter(|e| seed == 0 || e.key.starts_with("seed="))
                .collect();
            entries.sort_by(|a, b| a.key.cmp(&b.key));
            print!("{}", golden::render(kind.name(), &entries));
        }
    }
}
