//! The `repro` command-line contract on its argument-error paths: exit
//! codes and the messages users see. Every case fails before any
//! experiment starts, so the whole file runs in milliseconds.

use std::process::Command;

const SUBCOMMANDS: [&str; 4] = ["route", "churn", "chaos", "sparse"];

/// Runs `repro` with `args` and returns (exit code, stdout, stderr).
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts `repro args` exits 1 with `needle` somewhere on stderr.
fn assert_rejected(args: &[&str], needle: &str) {
    let (code, _, stderr) = repro(args);
    assert_eq!(code, Some(1), "repro {args:?} should exit 1; stderr: {stderr}");
    assert!(stderr.contains(needle), "repro {args:?}: {needle:?} not in stderr: {stderr}");
}

#[test]
fn gate_is_not_a_subcommand() {
    assert_rejected(&["gate"], "unknown argument: gate");
}

#[test]
fn serve_is_not_a_subcommand() {
    assert_rejected(&["serve"], "unknown argument: serve");
}

#[test]
fn bare_repro_prints_usage_without_gate() {
    let (code, stdout, stderr) = repro(&[]);
    assert_eq!(code, Some(1));
    assert!(stdout.is_empty(), "usage goes to stderr, stdout was: {stdout}");
    assert!(stderr.starts_with("usage: repro <figN | all | ablations>"), "{stderr}");
    for cmd in SUBCOMMANDS {
        assert!(stderr.contains(&format!("repro {cmd} [")), "usage lacks {cmd}: {stderr}");
    }
    assert!(!stderr.contains("gate"), "usage still lists gate: {stderr}");
    assert!(!stderr.contains("repro serve"), "usage still lists serve: {stderr}");
}

#[test]
fn every_subcommand_rejects_a_bad_value() {
    for cmd in SUBCOMMANDS {
        assert_rejected(&[cmd, "--nodes", "x"], "bad --nodes value");
        assert_rejected(&[cmd, "--nodes"], "--nodes needs a value");
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    for cmd in SUBCOMMANDS {
        assert_rejected(&[cmd, "--bogus"], &format!("unknown {cmd} argument: --bogus"));
    }
    assert_rejected(&["chaos", "--target-qps", "1"], "unknown chaos argument: --target-qps");
}

#[test]
fn range_checks_keep_their_messages() {
    assert_rejected(&["chaos", "--observe", "1.0"], "--observe must be in [0, 1)");
    assert_rejected(&["route", "--out"], "--out needs a directory");
}
