//! The binary's command-line contract: malformed flags exit 2 with usage
//! and print no result line.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_st2-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn malformed_flags_exit_2_with_usage() {
    for args in [
        &["--workload", "suite_pair_full", "--seed", "x"][..],
        &["--workload", "nope"],
        &["--trace", "1"],
        &["--workload"],
        &["--frobnicate"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: st2-perfbench"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
