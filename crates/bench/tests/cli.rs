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
        &[
            "--scale",
            "tiny",
            "--kernels",
            "pathfinder",
            "--l2-partitions",
            "4",
            "--l2-bw",
            "1",
        ],
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

#[test]
fn trace_report_honours_the_shared_gpu_flags() {
    let dir = std::env::temp_dir().join(format!("st2-trace-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create out dir");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg("pathfinder")
        .arg(&dir)
        .args(["--scale", "tiny", "--gpu", "titan-v-full"])
        .output()
        .expect("trace_report runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("pathfinder.trace.json")).expect("trace written");
    std::fs::remove_dir_all(&dir).ok();
    let doc = st2::telemetry::json::parse(&text).expect("trace parses");
    let threads: Vec<&str> = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    let expected: Vec<String> = (0..80).map(|sm| format!("SM {sm}")).collect();
    assert_eq!(threads, expected, "one thread per SM of the 80-SM preset");
}
