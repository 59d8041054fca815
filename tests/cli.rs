//! The `govdns` binary's error contract: a malformed command line is a
//! usage error (exit 2, usage text on stderr) and never a panic, for
//! every subcommand.

use std::process::{Command, Output};

fn govdns(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_govdns")).args(args).output().expect("run govdns")
}

/// Asserts `args` is rejected as a usage error before any work starts.
fn assert_usage_error(args: &[&str]) {
    let out = govdns(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("USAGE:"), "{args:?}: no usage text in {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

/// Every subcommand (and mode), with a flag it takes a value for
/// (`diff replay` takes no flags at all).
const COMMANDS: &[(&[&str], &str)] = &[
    (&["audit"], "--seed"),
    (&["hijack"], "--scale"),
    (&["country", "br"], "--workers"),
    (&["remedies"], "--loss"),
    (&["check", "zone.txt"], "--seed"),
    (&["chaos"], "--profile"),
    (&["resume"], "--crash-after"),
    (&["trace"], "--sample-ppm"),
    (&["diff", "run"], "--out"),
    (&["diff", "diff", "a", "b"], "--domain"),
    (&["diff", "replay", "case.json"], "--nope"),
    (&["counterfactual", "rank"], "--degrade"),
    (&["counterfactual", "run"], "--partial"),
    (&["smell", "run"], "--smell"),
    (&["smell", "inspect", "smells.json"], "--explain"),
];

#[test]
fn unknown_flags_are_usage_errors() {
    for (command, _) in COMMANDS {
        assert_usage_error(&[command, &["--no-such-flag"][..]].concat());
    }
}

#[test]
fn valueless_flags_are_usage_errors() {
    for (command, flag) in COMMANDS {
        assert_usage_error(&[command, &[*flag][..]].concat());
    }
}

#[test]
fn check_on_a_missing_file_fails_without_panicking() {
    let missing = std::env::temp_dir().join(format!("govdns-cli-{}.zone", std::process::id()));
    let out = govdns(&["check", missing.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
