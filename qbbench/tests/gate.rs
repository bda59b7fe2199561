//! The correctness gate can fail: a planted fault must make the command
//! exit non-zero, while the same run without it passes.

use std::process::{Command, Output};

fn run(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qbbench"))
        .args([
            "--workload",
            "tcp-rw-tenants",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn clean_run_passes() {
    let out = run(&[]);
    assert!(out.status.success(), "{}", last_line(&out));
    assert!(last_line(&out).starts_with("{\"correct\": true, "));
}

#[test]
fn corrupted_expected_answer_fails_the_run() {
    let out = run(&["--inject", "corrupt-answer"]);
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out);
    assert!(line.starts_with("{\"correct\": false, "), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
}

#[test]
fn dropped_episode_fails_the_security_check() {
    let out = run(&["--inject", "drop-episode"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("secure=false"), "{stdout}");
    assert!(last_line(&out).starts_with("{\"correct\": false, "));
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for bad in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "tcp-uniform",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["--workload", "tcp-uniform", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_qbbench"))
            .args(bad)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
    }
}
