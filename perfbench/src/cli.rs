//! Command-line parsing. Every malformed invocation becomes an `Err`
//! carrying a one-line reason; `main` prints it with [`USAGE`] and exits 2.

use crate::workloads::WorkloadKind;

/// Usage text printed on every command-line error.
pub const USAGE: &str = "usage: st2-perfbench --workload <suite_pair_full|chip80_starved|dse_replay_test|suite_profiled_test> \
[--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]
       st2-perfbench --bless          (print the golden reference for perfbench/golden.txt)";

/// A checked command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Measure one workload.
    Run(RunArgs),
    /// Regenerate the golden simulated-stat reference.
    Bless,
}

/// Arguments of a measuring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: WorkloadKind,
    /// Seed for the generated inputs and the kernel order.
    pub seed: u64,
    /// Seconds of measured passes.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics) or the plain
    /// run (end-to-end metrics).
    pub trace: bool,
}

/// Parses the arguments after `argv[0]`.
///
/// # Errors
///
/// Returns the reason when a flag is unknown, lacks its value, or has a
/// value out of range, or when `--workload` is missing.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut bless = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?,
            other => return Err(format!("unknown argument {other:?}")),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got {value:?}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds must be 1..=600, got {value:?}"))?;
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
        }
    }
    if bless {
        return Ok(Command::Bless);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let cmd = parse_strs(&[
            "--workload",
            "chip80_starved",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]);
        assert_eq!(
            cmd,
            Ok(Command::Run(RunArgs {
                workload: WorkloadKind::Chip80Starved,
                seed: 7,
                seconds: 12,
                trace: true,
            }))
        );
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        for bad in [
            &["--workload"][..],
            &["--workload", "nope"],
            &["--workload", "dse_replay_test", "--seed", "-1"],
            &["--workload", "dse_replay_test", "--seconds", "0"],
            &["--workload", "dse_replay_test", "--seconds", "ten"],
            &["--workload", "dse_replay_test", "--trace", "2"],
            &["--workload", "dse_replay_test", "--verbose"],
            &["--seed", "3"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn bless_needs_no_workload() {
        assert_eq!(parse_strs(&["--bless"]), Ok(Command::Bless));
    }
}
