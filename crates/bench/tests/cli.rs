//! Exit-code contract of the `simulate` subcommands.
//!
//! CI tells three outcomes apart by exit status alone: 0 = every
//! property held, 1 = a property was violated (a red verdict), 2 = the
//! harness itself failed (bad invocation, unwritable output). A
//! conflated code would let a broken harness masquerade as a clean run —
//! these tests pin each code end-to-end through the real binary.

use std::process::Command;

fn simulate(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("simulate binary runs")
}

#[test]
fn verify_clean_model_exits_zero() {
    let out = simulate(&["verify", "--depth", "3", "--tasks", "2", "--objects", "2"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("verdict: clean"), "{stdout}");
}

#[test]
fn verify_planted_violation_exits_one() {
    let out = simulate(&[
        "verify",
        "--depth",
        "4",
        "--tasks",
        "2",
        "--objects",
        "2",
        "--planted-bug",
        "off-by-one",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("verify FAILED"),
        "violation must be loud on stderr: {stderr}"
    );
}

#[test]
fn verify_bad_invocation_exits_two() {
    for bad in [
        &["verify", "--no-such-flag"][..],
        &["verify", "--depth", "not-a-number"][..],
        &["verify", "--tasks", "9"][..],
    ] {
        let out = simulate(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}: {out:?}");
    }
}

#[test]
fn verify_unwritable_out_exits_two() {
    let out = simulate(&[
        "verify",
        "--depth",
        "2",
        "--tasks",
        "2",
        "--objects",
        "2",
        "--json",
        "--out",
        "/nonexistent-dir/report.json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "an IO failure is an internal error, not a verdict: {out:?}"
    );
}

#[test]
fn conformance_clean_exits_zero_and_bad_invocation_exits_two() {
    let out = simulate(&["conformance", "--ops", "50", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = simulate(&["conformance", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn every_subcommand_exits_two_on_a_bad_invocation() {
    for bad in [
        &["aes", "--tasks", "x"][..],
        &["faults", "--spec", "all:2.0"][..],
        &["conformance", "--ops", "x"][..],
        &["verify", "--depth", "x"][..],
        &["analyze", "--streams", "x"][..],
        &["profile", "aes", "--variant", "nope"][..],
        &["adapt", "campaign", "--fus", "x"][..],
    ] {
        let out = simulate(bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}: {out:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: the error is printed");
    }
}

#[test]
fn verify_json_report_is_byte_identical_across_threads() {
    let run = |threads: &str| {
        let out = simulate(&[
            "verify",
            "--depth",
            "4",
            "--tasks",
            "2",
            "--objects",
            "2",
            "--threads",
            threads,
            "--json",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        out.stdout
    };
    let sequential = run("1");
    let stdout = String::from_utf8(sequential.clone()).unwrap();
    assert!(
        stdout.contains("\"schema\":\"capcheri.modelcheck.v1\""),
        "{stdout}"
    );
    for t in ["2", "4"] {
        assert_eq!(run(t), sequential, "threads={t}");
    }
}
