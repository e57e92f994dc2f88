//! End-to-end tests of the actual `spindown-cli` binary (spawned as a
//! subprocess via the path Cargo exports for integration tests).

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spindown-cli"))
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = bin().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--scheduler"));
}

#[test]
fn missing_command_exits_nonzero_with_usage() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("missing subcommand"));
    assert!(text.contains("USAGE"));
}

#[test]
fn degenerate_values_exit_two_without_panicking() {
    for args in [
        &["simulate", "--disks", "0"][..],
        &["simulate", "--rate", "0"],
        &["simulate", "--scheduler", "wsc", "--interval-ms", "0"],
        &["compare", "--beta", "0"],
    ] {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: missing or invalid value for --"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn simulate_small_synthetic_workload() {
    let out = bin()
        .args([
            "simulate",
            "--requests",
            "400",
            "--data-items",
            "150",
            "--disks",
            "8",
            "--rate",
            "4",
            "--scheduler",
            "wsc",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scheduler: wsc"));
    assert!(text.contains("vs always-on"));
}

#[test]
fn stats_on_a_trace_file() {
    let dir = std::env::temp_dir().join("spindown-cli-bin-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.srt");
    std::fs::write(&path, "0.5 1 100 4096 R\n2.5 1 200 4096 W\n").unwrap();
    let out = bin()
        .args(["stats", "--trace", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("requests            : 2"));
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_trace_file_exits_one() {
    let out = bin()
        .args(["stats", "--trace", "/nope/missing.spc"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.starts_with("error: cannot read"), "{text}");
}

#[test]
fn replan_synthetic_workload() {
    let out = bin()
        .args([
            "replan",
            "--requests",
            "500",
            "--data-items",
            "200",
            "--disks",
            "8",
            "--rate",
            "4",
            "--window-s",
            "30",
            "--step-s",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rolling-horizon replan report"), "{text}");
    assert!(text.contains("windows planned"), "{text}");
    assert!(text.contains("plan digest"), "{text}");
}

#[test]
fn replan_output_is_jobs_invariant() {
    // The CI determinism job byte-diffs larger runs; this pins the same
    // contract in-tree on a small one.
    let run = |jobs: &str| {
        let out = bin()
            .args([
                "replan",
                "--requests",
                "400",
                "--data-items",
                "150",
                "--disks",
                "8",
                "--rate",
                "5",
                "--seed",
                "7",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert_eq!(run("1"), run("8"));
}

#[test]
fn compare_output_is_jobs_invariant() {
    // Replication 1 makes every disk its own replica island, so at
    // `--jobs 8` each event scheduler replays through the stream
    // splitter; at `--jobs 1` the same islands run inline. The report
    // must not depend on the path.
    let run = |jobs: &str| {
        let out = bin()
            .args([
                "compare",
                "--requests",
                "1000",
                "--data-items",
                "300",
                "--disks",
                "8",
                "--rate",
                "4",
                "--replication",
                "1",
                "--seed",
                "7",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let serial = run("1");
    assert!(serial.contains("always-on"), "{serial}");
    assert_eq!(serial, run("8"));
}

#[test]
fn determinism_across_invocations() {
    let run = || {
        let out = bin()
            .args([
                "simulate",
                "--requests",
                "300",
                "--data-items",
                "100",
                "--disks",
                "6",
                "--rate",
                "3",
                "--seed",
                "77",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    assert_eq!(run(), run());
}
