//! A malformed command line is an error, not a run: every subcommand
//! run as a process with an unknown flag, a numeric flag without a value
//! or with a non-number, and the other argv mistakes below exits with
//! status 1 and names the offending token, where an unchecked parser
//! used to drop it and run with defaults (or panic, exit status 101).

use std::process::{Command, Output};

fn gpp(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpp"))
        .args(argv)
        .output()
        .unwrap()
}

/// Runs `argv`, which must fail with status 1 and name every `needles`
/// token on stderr without a panic.
fn rejects(argv: &[&str], needles: &[&str]) {
    let out = gpp(argv);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{argv:?} must name {needle}: {stderr}"
        );
    }
    assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
}

/// The command names `gpp help` lists.
fn commands() -> Vec<String> {
    let help = String::from_utf8(gpp(&["help"]).stdout).unwrap();
    let list = help.split_once("commands:\n").expect("a command list").1;
    list.lines()
        .map_while(|line| line.strip_prefix("  "))
        .map(|line| line.split_whitespace().next().unwrap().to_owned())
        .collect()
}

/// The first flag `gpp help CMD` lists with a numeric value (`N`).
fn numeric_flag(cmd: &str) -> Option<String> {
    let help = String::from_utf8(gpp(&["help", cmd]).stdout).unwrap();
    help.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        let flag = words.next().filter(|w| w.starts_with("--"))?;
        (words.next() == Some("N")).then(|| flag.to_owned())
    })
}

#[test]
fn every_subcommand_rejects_unknown_flags_and_bad_numbers() {
    let commands = commands();
    assert!(commands.len() >= 20, "{commands:?}");
    let mut numeric = 0;
    for cmd in &commands {
        rejects(&[cmd, "--frobnicate"], &["--frobnicate"]);
        if let Some(flag) = numeric_flag(cmd) {
            numeric += 1;
            rejects(&[cmd, &flag], &[&flag, "needs a value"]);
            rejects(&[cmd, &flag, "zebra"], &[&flag, "zebra"]);
        }
    }
    assert!(numeric >= 9, "only {numeric} commands have a numeric flag");
}

#[test]
fn every_subcommand_checks_the_shared_flags() {
    for cmd in &commands() {
        rejects(&[cmd, "--trace-out"], &["--trace-out", "needs a value"]);
        rejects(&[cmd, "--profile", "--profile"], &["--profile given twice"]);
    }
}

#[test]
fn argv_mistakes_are_named_together() {
    for (argv, needles) in [
        (&["study", "--thraeds", "2"][..], &["--thraeds"][..]),
        (&["study", "--scale", "tiny", "--runs", "0"], &["--runs"]),
        (
            &["study", "--profile", "--scale", "tiny", "--runs", "0"],
            &["--runs"],
        ),
        (&["run-dsl", "x.irgl", "--tier", "ast"], &["--tier"]),
        (&["analyze", "extra.json"], &["extra.json"]),
        (
            &["study", "--seed", "1", "--seed", "2"],
            &["--seed given twice"],
        ),
        (&["classify"], &["missing FILE"]),
        // A count that sizes an allocation is bounded, so a huge one is an
        // argument error rather than an aborted allocation.
        (
            &["sensitivity", "--trials", "1000000000000", "--data", "D"],
            &["--trials must be in 1..=10000"],
        ),
        (
            &["sweep", "--smoke", "--chips", "1000000000000"],
            &["--chips must be in 2..=100000"],
        ),
        (
            &["study", "--scale", "tiny", "--runs", "1000000000000"],
            &["--runs must be in 1..=1000"],
        ),
        (
            &["portfolio", "--smoke", "--beam", "18446744073709551615"],
            &["--beam must be in 1..=10000"],
        ),
        // Every error in one line is reported in the one message.
        (
            &["study", "--thraeds", "2", "--runs", "0", "--scale", "huge"],
            &["--thraeds", "--runs", "huge"],
        ),
    ] {
        rejects(argv, needles);
    }
}

#[test]
fn the_retired_per_chip_flag_is_ignored_with_a_warning() {
    let dir = std::env::temp_dir().join(format!("gpp-cli-per-chip-{}", std::process::id()));
    let out = dir.join("sweep.json");
    let out_arg = out.display().to_string();
    let argv = [
        "sweep",
        "--smoke",
        "--chips",
        "3",
        "--threads",
        "1",
        "--out",
        &out_arg,
    ];
    let plain = gpp(&argv);
    let retired = gpp(&[&argv[..], &["--per-chip"]].concat());
    assert!(plain.status.success() && retired.status.success());
    assert_eq!(plain.stdout, retired.stdout);
    let stderr = String::from_utf8_lossy(&retired.stderr);
    assert!(stderr.contains("--per-chip was removed"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
