//! The harness binaries' shared command-line contract: a malformed or
//! unknown flag exits 2 with a usage line instead of panicking.

use std::process::Command;

#[test]
fn profile_report_rejects_bad_flags_with_exit_2() {
    for args in [
        &["--scale", "bogus"][..],
        &["--scale"],
        &["--mshr-entries", "many"],
        &["--threads", "1"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_profile_report"))
            .args(args)
            .output()
            .expect("profile_report runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: profile_report"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran the suite");
    }
}
