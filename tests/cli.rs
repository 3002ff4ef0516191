//! The `relock` binary's argument handling: every subcommand accepts
//! exactly the flags its usage line lists, so a typo or a removed flag
//! fails loudly instead of running on defaults.

use std::path::PathBuf;
use std::process::{Command, Output};

fn relock(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_relock"))
        .args(args)
        .output()
        .expect("spawn relock")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch path under cargo's integration-test temp dir.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{}-{name}", std::process::id()))
}

#[test]
fn unknown_flag_exits_2_and_names_the_flag() {
    let out = relock(&["lock", "--arch", "mlp", "--bits", "8", "--seeed", "3"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--seeed"), "stderr: {}", stderr(&out));
}

/// A script still passing a flag the CLI no longer has must fail rather
/// than silently run on defaults.
#[test]
fn attack_rejects_the_removed_adaptive_flag() {
    let flag = "--adaptive";
    let out = relock(&["attack", "victim.rlk", "--fast", flag]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains(flag), "stderr: {}", stderr(&out));
}

#[test]
fn listed_flags_lock_and_attack() {
    let model = scratch("victim.rlk");
    let path = model.to_str().expect("utf-8 temp path");
    let lock = relock(&[
        "lock",
        "--arch",
        "mlp",
        "--bits",
        "16",
        "--out",
        path,
        "--no-train",
    ]);
    assert!(lock.status.success(), "lock: {}", stderr(&lock));
    let attack = relock(&["attack", path, "--fast"]);
    let _ = std::fs::remove_file(&model);
    assert!(attack.status.success(), "attack: {}", stderr(&attack));
    assert!(
        String::from_utf8_lossy(&attack.stdout).contains("DNN decryption attack:"),
        "attack stdout: {}",
        String::from_utf8_lossy(&attack.stdout)
    );
}
