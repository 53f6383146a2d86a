//! Shared infrastructure for the reproduction harness: suite runners
//! (parallelised across kernels), result caching, and table printing.
//!
//! Each `src/bin/*.rs` binary regenerates one table or figure of the
//! paper; see DESIGN.md's per-experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use std::sync::Mutex;

use st2::prelude::*;

/// The command line shared by every harness binary, parsed once.
///
/// Recognised flags (all optional, any order):
///
/// * `--scale test|tiny|full` — problem sizes (default full; `tiny` is
///   an alias for `test`)
/// * `--out <dir>` — also write machine-readable CSV artifacts there
/// * `--kernels <substring>` — restrict suite runs to kernels whose name
///   contains the substring
/// * `--mshr-entries <n>` / `--l2-bw <n>` / `--dram-bw <n>` — memory
///   subsystem overrides for boundedness studies (defaults leave the
///   config untouched; see [`GpuConfig::with_mshr_entries`] etc.)
/// * `--l2-partitions <n>` / `--xbar-queue <n>` — L2 partition count
///   (power of two) and per-port crossbar queue depth overrides (see
///   [`GpuConfig::with_l2_partitions`] / [`GpuConfig::with_xbar_queue`])
/// * `--no-event-driven` — run the lockstep reference driver
///   ([`GpuConfig::event_driven`] off; results are bit-identical, this
///   is a wall-clock cross-check)
/// * `--gpu harness|titan-v|titan-v-full` — base GPU preset before
///   overrides: the 4-SM harness slice (default),
///   [`GpuConfig::titan_v`], or the 80-SM [`GpuConfig::titan_v_full`]
///
/// Tokens that do not start with `--` land in [`BenchArgs::rest`] for
/// binaries with positional arguments (e.g. `trace_report <kernel>
/// [out_dir]`); an unknown `--flag` is an error.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Problem scale (`--scale`).
    pub scale: Scale,
    /// Artifact directory (`--out`).
    pub out: Option<std::path::PathBuf>,
    /// Kernel-name substring filter (`--kernels`).
    pub kernels: Option<String>,
    /// Per-SM MSHR file capacity override (`--mshr-entries`).
    pub mshr_entries: Option<u32>,
    /// L2 requests-per-cycle override (`--l2-bw`).
    pub l2_bw: Option<u32>,
    /// DRAM requests-per-cycle override (`--dram-bw`).
    pub dram_bw: Option<u32>,
    /// L2 partition-count override (`--l2-partitions`).
    pub l2_partitions: Option<u32>,
    /// Crossbar injection-queue depth override (`--xbar-queue`).
    pub xbar_queue: Option<u32>,
    /// Run the lockstep reference driver (`--no-event-driven`).
    pub no_event_driven: bool,
    /// Base GPU preset (`--gpu`); `None` means the harness default.
    pub gpu_preset: Option<GpuPreset>,
    /// Everything not consumed by a flag, in order.
    pub rest: Vec<String>,
}

/// The flags [`BenchArgs`] accepts, as one usage line.
pub const USAGE: &str = "[--scale test|tiny|full] [--out <dir>] [--kernels <substring>] \
[--gpu harness|titan-v|titan-v-full] [--mshr-entries <n>] [--l2-bw <n>] [--dram-bw <n>] \
[--l2-partitions <n>] [--xbar-queue <n>] [--no-event-driven]";

/// Base GPU presets selectable with `--gpu` (overrides apply on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuPreset {
    /// The 4-SM harness slice ([`harness_gpu`], the default).
    Harness,
    /// The paper's 20-SM TITAN V slice ([`GpuConfig::titan_v`]).
    TitanV,
    /// The full 80-SM TITAN V ([`GpuConfig::titan_v_full`]).
    TitanVFull,
}

impl GpuPreset {
    /// Every preset, in `--gpu` help order.
    pub const ALL: [GpuPreset; 3] = [GpuPreset::Harness, GpuPreset::TitanV, GpuPreset::TitanVFull];

    /// The preset's base configuration.
    #[must_use]
    pub fn config(self) -> GpuConfig {
        match self {
            GpuPreset::Harness => harness_gpu(),
            GpuPreset::TitanV => GpuConfig::titan_v(),
            GpuPreset::TitanVFull => GpuConfig::titan_v_full(),
        }
    }

    /// The preset's `--gpu` value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GpuPreset::Harness => "harness",
            GpuPreset::TitanV => "titan-v",
            GpuPreset::TitanVFull => "titan-v-full",
        }
    }
}

impl BenchArgs {
    /// Parses the process command line (skipping `argv[0]`). On a
    /// malformed or unknown flag it prints the error and a usage line
    /// to stderr and exits with status 2.
    #[must_use]
    pub fn parse() -> Self {
        let mut argv = std::env::args();
        let prog = argv
            .next()
            .and_then(|p| {
                std::path::Path::new(&p)
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "st2-bench".to_string());
        Self::from_tokens(argv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: {prog} {USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit token stream (for tests).
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when a flag is missing its
    /// value, a value does not parse, or a `--flag` is unknown, and
    /// [`GpuConfig::validate`]'s reason when the resulting machine is
    /// not one the simulator can run.
    pub fn from_tokens(iter: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = BenchArgs::default();
        let mut it = iter.into_iter();
        while let Some(tok) = it.next() {
            let mut value =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
            match tok.as_str() {
                "--scale" => {
                    args.scale = match value("--scale")?.as_str() {
                        // "tiny" is a CI-friendly alias for the smallest
                        // problem sizes the suite defines.
                        "test" | "tiny" => Scale::Test,
                        "full" => Scale::Full,
                        other => {
                            return Err(format!(
                                "--scale must be test, tiny or full, got {other:?}"
                            ))
                        }
                    };
                }
                "--out" => args.out = Some(std::path::PathBuf::from(value("--out")?)),
                "--kernels" => args.kernels = Some(value("--kernels")?),
                "--mshr-entries" | "--l2-bw" | "--dram-bw" | "--l2-partitions" | "--xbar-queue" => {
                    let v = value(&tok)?;
                    let n = v
                        .parse()
                        .map_err(|_| format!("{tok} must be an integer, got {v:?}"))?;
                    match tok.as_str() {
                        "--mshr-entries" => args.mshr_entries = Some(n),
                        "--l2-bw" => args.l2_bw = Some(n),
                        "--l2-partitions" => args.l2_partitions = Some(n),
                        "--xbar-queue" => args.xbar_queue = Some(n),
                        _ => args.dram_bw = Some(n),
                    }
                }
                "--no-event-driven" => args.no_event_driven = true,
                "--gpu" => {
                    let v = value("--gpu")?;
                    let preset = GpuPreset::ALL.into_iter().find(|p| p.name() == v);
                    args.gpu_preset = Some(preset.ok_or_else(|| {
                        format!("--gpu must be harness, titan-v or titan-v-full, got {v:?}")
                    })?);
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => args.rest.push(tok),
            }
        }
        args.gpu().validate()?;
        Ok(args)
    }

    /// Whether `name` passes the `--kernels` filter (no filter = all).
    #[must_use]
    pub fn matches(&self, name: &str) -> bool {
        self.kernels.as_deref().is_none_or(|f| name.contains(f))
    }

    /// The `--gpu` preset (harness by default) with any memory-subsystem
    /// and driver overrides applied.
    #[must_use]
    pub fn gpu(&self) -> GpuConfig {
        let mut cfg = self.gpu_preset.map_or_else(harness_gpu, GpuPreset::config);
        if let Some(n) = self.mshr_entries {
            cfg = cfg.with_mshr_entries(n);
        }
        if let Some(n) = self.l2_bw {
            cfg = cfg.with_l2_bw(n);
        }
        if let Some(n) = self.dram_bw {
            cfg = cfg.with_dram_bw(n);
        }
        if let Some(n) = self.l2_partitions {
            cfg = cfg.with_l2_partitions(n);
        }
        if let Some(n) = self.xbar_queue {
            cfg = cfg.with_xbar_queue(n);
        }
        if self.no_event_driven {
            cfg = cfg.with_event_driven(false);
        }
        cfg
    }
}

/// The simulated GPU size used by the harness (a 4-SM slice of the
/// TITAN V; energy results are normalised so the shape is preserved).
#[must_use]
pub fn harness_gpu() -> GpuConfig {
    GpuConfig::scaled(4)
}

/// Applies a [`BenchArgs::kernels`]-style substring filter to suite
/// specs, panicking (operator typo) when nothing survives.
fn filter_specs(specs: Vec<KernelSpec>, filter: Option<&str>) -> Vec<KernelSpec> {
    let Some(f) = filter else { return specs };
    let kept: Vec<KernelSpec> = specs.into_iter().filter(|s| s.name.contains(f)).collect();
    assert!(!kept.is_empty(), "--kernels {f:?} matches no suite kernel");
    kept
}

/// One kernel's functional results.
pub struct FunctionalRun {
    /// Kernel spec (memory already consumed by the run).
    pub spec: KernelSpec,
    /// Functional output (mix, optional records/trace).
    pub out: st2::sim::FunctionalOutput,
}

/// Runs the whole suite functionally, in parallel across kernels.
///
/// # Panics
///
/// Panics if any kernel fails its CPU-reference verification.
#[must_use]
pub fn functional_suite(scale: Scale, collect_records: bool) -> Vec<FunctionalRun> {
    functional_suite_filtered(scale, collect_records, None)
}

/// [`functional_suite`] restricted to kernels whose name contains
/// `filter` (the `--kernels` flag).
///
/// # Panics
///
/// Panics if a kernel fails verification or the filter matches nothing.
#[must_use]
pub fn functional_suite_filtered(
    scale: Scale,
    collect_records: bool,
    filter: Option<&str>,
) -> Vec<FunctionalRun> {
    let specs = filter_specs(suite(scale), filter);
    let results: Mutex<Vec<(usize, FunctionalRun)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (i, spec) in specs.into_iter().enumerate() {
            let results = &results;
            s.spawn(move || {
                let mut mem = spec.memory.clone();
                let out = run_functional(
                    &spec.program,
                    spec.launch,
                    &mut mem,
                    &FunctionalOptions {
                        collect_records,
                        ..Default::default()
                    },
                );
                spec.verify(&mem)
                    .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
                results
                    .lock()
                    .expect("suite results lock")
                    .push((i, FunctionalRun { spec, out }));
            });
        }
    });
    let mut v = results.into_inner().expect("suite results lock");
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// One kernel's baseline + ST² timed results.
pub struct TimedPair {
    /// Kernel name.
    pub name: &'static str,
    /// Baseline run.
    pub baseline: TimedOutput,
    /// ST² run.
    pub st2: TimedOutput,
}

impl TimedPair {
    /// ST² slowdown relative to baseline (0 = identical).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.st2.cycles as f64 / self.baseline.cycles as f64 - 1.0
    }
}

/// Runs the whole suite on the cycle-level engine, baseline and ST², in
/// parallel across kernels.
///
/// # Panics
///
/// Panics if any kernel fails verification or the two runs' results
/// diverge.
#[must_use]
pub fn timed_suite(scale: Scale, cfg: &GpuConfig) -> Vec<TimedPair> {
    timed_suite_filtered(scale, cfg, None)
}

/// [`timed_suite`] restricted to kernels whose name contains `filter`
/// (the `--kernels` flag).
///
/// # Panics
///
/// Panics if a kernel fails verification, the baseline and ST² runs
/// diverge, or the filter matches nothing.
#[must_use]
pub fn timed_suite_filtered(scale: Scale, cfg: &GpuConfig, filter: Option<&str>) -> Vec<TimedPair> {
    let specs = filter_specs(suite(scale), filter);
    let st2_cfg = cfg.with_st2();
    let results: Mutex<Vec<(usize, TimedPair)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (i, spec) in specs.into_iter().enumerate() {
            let results = &results;
            let cfg = *cfg;
            s.spawn(move || {
                let mut m1 = spec.memory.clone();
                let baseline = run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut m1,
                    &cfg,
                    RunOptions::default(),
                );
                let mut m2 = spec.memory.clone();
                let st2 = run_timed_with(
                    &spec.program,
                    spec.launch,
                    &mut m2,
                    &st2_cfg,
                    RunOptions::default(),
                );
                assert_eq!(
                    m1.as_bytes(),
                    m2.as_bytes(),
                    "{}: speculation changed results",
                    spec.name
                );
                spec.verify(&m1)
                    .unwrap_or_else(|e| panic!("{} failed verification: {e}", spec.name));
                results.lock().expect("suite results lock").push((
                    i,
                    TimedPair {
                        name: spec.name,
                        baseline,
                        st2,
                    },
                ));
            });
        }
    });
    let mut v = results.into_inner().expect("suite results lock");
    v.sort_by_key(|(i, _)| *i);
    v.into_iter().map(|(_, r)| r).collect()
}

/// Prints a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Prints a ruled header line.
pub fn header(title: &str) {
    println!("\n== {title} ==");
    println!("{:-<78}", "");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_suite_runs_at_test_scale() {
        let runs = functional_suite(Scale::Test, false);
        assert_eq!(runs.len(), 23);
        assert!(runs.iter().all(|r| r.out.mix.total() > 0));
        // Order matches the Fig. 6 suite order.
        assert_eq!(runs[0].spec.name, "binomial");
        assert_eq!(runs[7].spec.name, "pathfinder");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.215), "21.5%");
    }

    #[test]
    fn bench_args_parse_all_flags() {
        let toks = [
            "--scale",
            "test",
            "--out",
            "art",
            "--kernels",
            "path",
            "--mshr-entries",
            "4",
            "--l2-bw",
            "3",
            "--dram-bw",
            "1",
            "--l2-partitions",
            "2",
            "--xbar-queue",
            "4",
            "--no-event-driven",
            "--gpu",
            "titan-v-full",
        ];
        let args = BenchArgs::from_tokens(toks.iter().map(ToString::to_string)).expect("parses");
        assert_eq!(args.scale, Scale::Test);
        assert_eq!(args.out.as_deref(), Some(std::path::Path::new("art")));
        assert_eq!(args.kernels.as_deref(), Some("path"));
        assert!(args.rest.is_empty());
        let gpu = args.gpu();
        assert_eq!(gpu.sim_threads, 1);
        assert_eq!(gpu.mshr_entries, 4);
        assert_eq!(gpu.l2_bw, 3);
        assert_eq!(gpu.dram_bw, 1);
        assert_eq!(gpu.l2_partitions, 2);
        assert_eq!(gpu.xbar_queue, 4);
        assert!(args.no_event_driven && !gpu.event_driven);
        assert_eq!(args.gpu_preset, Some(GpuPreset::TitanVFull));
        assert_eq!(gpu.num_sms, GpuConfig::titan_v_full().num_sms);
        assert!(args.matches("pathfinder"));
        assert!(!args.matches("histogram"));

        // Malformed command lines are errors naming the flag, never a
        // panic and never a silent fall-through into `rest`.
        for (toks, needle) in [
            (&["--scale"][..], "--scale requires a value"),
            (&["--scale", "bogus"], "--scale must be"),
            (&["--gpu", "h100"], "--gpu must be"),
            (
                &["--mshr-entries", "four"],
                "--mshr-entries must be an integer",
            ),
            (&["--dram-bw", "-1"], "--dram-bw must be an integer"),
            (&["--xbar-queue"], "--xbar-queue requires a value"),
            (&["--threads", "2"], "unknown flag --threads"),
            (&["pathfinder", "--frobnicate"], "unknown flag --frobnicate"),
            (&["--mshr-entries", "0"], "mshr_entries must be at least 1"),
            (
                &["--l2-partitions", "4", "--l2-bw", "1"],
                "l2_bw (1) must be at least l2_partitions (4)",
            ),
        ] {
            let err =
                BenchArgs::from_tokens(toks.iter().map(ToString::to_string)).expect_err(needle);
            assert!(err.contains(needle), "{toks:?}: {err}");
        }
    }

    #[test]
    fn bench_args_defaults_and_positionals() {
        let toks = ["pathfinder", "out_dir"];
        let args = BenchArgs::from_tokens(toks.iter().map(ToString::to_string)).expect("parses");
        assert_eq!(args.scale, Scale::Full);
        assert!(args.out.is_none() && args.kernels.is_none());
        assert!(args.mshr_entries.is_none() && args.l2_bw.is_none() && args.dram_bw.is_none());
        assert!(args.l2_partitions.is_none() && args.xbar_queue.is_none());
        assert!(!args.no_event_driven);
        assert!(args.gpu_preset.is_none());
        assert_eq!(args.rest, vec!["pathfinder", "out_dir"]);
        assert_eq!(
            args.gpu(),
            harness_gpu(),
            "no overrides leaves the config untouched"
        );
        assert!(args.matches("anything"));
        for preset in GpuPreset::ALL {
            let args = BenchArgs::from_tokens(["--gpu".to_string(), preset.name().to_string()])
                .expect("every preset name parses");
            assert_eq!(args.gpu_preset, Some(preset));
        }
    }

    #[test]
    fn kernel_filter_restricts_suite() {
        let runs = functional_suite_filtered(Scale::Test, false, Some("pathfinder"));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].spec.name, "pathfinder");
    }

    #[test]
    #[should_panic(expected = "matches no suite kernel")]
    fn kernel_filter_rejects_typos() {
        let _ = functional_suite_filtered(Scale::Test, false, Some("no-such-kernel"));
    }
}

/// Writes one CSV artifact (creating the directory as needed). Cells are
/// quoted only when they contain commas.
///
/// # Panics
///
/// Panics on I/O errors — an unwritable artifact directory is an operator
/// error the harness should surface immediately.
pub fn write_csv(dir: &std::path::Path, name: &str, header: &[&str], rows: &[Vec<String>]) {
    use std::io::Write as _;
    std::fs::create_dir_all(dir).expect("create artifact directory");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create artifact file");
    let quote = |s: &str| {
        if s.contains(',') {
            format!("\"{s}\"")
        } else {
            s.to_string()
        }
    };
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| quote(c)).collect();
        writeln!(f, "{}", cells.join(",")).expect("write row");
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod artifact_tests {
    use super::write_csv;

    #[test]
    fn csv_round_trips() {
        let dir = std::env::temp_dir().join("st2_csv_test");
        write_csv(
            &dir,
            "probe",
            &["kernel", "value"],
            &[
                vec!["pathfinder".into(), "0.5".into()],
                vec!["a,b".into(), "1".into()],
            ],
        );
        let text = std::fs::read_to_string(dir.join("probe.csv")).expect("read back");
        assert_eq!(text, "kernel,value\npathfinder,0.5\n\"a,b\",1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
