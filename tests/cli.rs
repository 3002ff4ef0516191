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
/// than silently run on defaults: `--adaptive` (the online correction
/// controller), `--precision` (the single-precision learning path),
/// `attack --workers` (the multi-process executor), `--checkpoint-every`
/// (the checkpoint write throttle) and `submit --threads` (a campaign
/// computes on one thread per slot).
#[test]
fn removed_flags_exit_2_and_name_the_flag() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["attack", "victim.rlk", "--fast", "--adaptive"],
            "--adaptive",
        ),
        (
            &["attack", "victim.rlk", "--fast", "--workers", "2"],
            "--workers",
        ),
        (
            &["attack", "victim.rlk", "--fast", "--precision", "f32"],
            "--precision",
        ),
        (
            &[
                "lock",
                "--arch",
                "mlp",
                "--bits",
                "8",
                "--out",
                "victim.rlk",
                "--precision",
                "f32",
            ],
            "--precision",
        ),
        (
            &[
                "attack",
                "v.rlk",
                "--checkpoint",
                "s.rlcp",
                "--checkpoint-every",
                "10",
            ],
            "--checkpoint-every",
        ),
        (&["submit", "v.rlk", "--threads", "2"], "--threads"),
    ];
    for (args, flag) in cases {
        let out = relock(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

/// The worker-process subcommand went with the multi-process executor: it
/// is an unknown subcommand now, so it exits 2 with the usage text.
#[test]
fn removed_worker_subcommand_exits_2_with_usage() {
    let out = relock(&["dist-worker", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).starts_with("usage:"),
        "stderr: {}",
        stderr(&out)
    );
}

/// A model file with a degenerate conv geometry is a typed load error
/// (exit 1, naming the geometry), never a panic.
#[test]
fn inspect_rejects_a_degenerate_conv_geometry() {
    let model = scratch("lenet.rlk");
    let path = model.to_str().expect("utf-8 temp path");
    let lock = relock(&[
        "lock",
        "--arch",
        "lenet",
        "--bits",
        "16",
        "--out",
        path,
        "--no-train",
    ]);
    assert!(lock.status.success(), "lock: {}", stderr(&lock));
    let bytes = std::fs::read(&model).expect("read the model file");
    let _ = std::fs::remove_file(&model);
    // The first conv's seven u64-le geometry fields: a 1×12×12 input, a
    // 5×5 kernel, stride 1, pad 2.
    let geom: Vec<u8> = [1u64, 12, 12, 5, 5, 1, 2]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let at = bytes
        .windows(geom.len())
        .position(|w| w == geom.as_slice())
        .expect("the first conv's geometry is in the file");
    // Stride 0, an empty kernel, and a kernel larger than the padded input.
    for (field, value) in [(5, 0u64), (3, 0), (3, 1000)] {
        let mut patched = bytes.clone();
        let f = at + 8 * field;
        patched[f..f + 8].copy_from_slice(&value.to_le_bytes());
        let file = scratch(&format!("lenet-{field}-{value}.rlk"));
        std::fs::write(&file, &patched).expect("write the patched model");
        let out = relock(&["inspect", file.to_str().expect("utf-8 temp path")]);
        let _ = std::fs::remove_file(&file);
        let why = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "field {field} = {value}: {why}");
        assert!(
            why.contains("conv geometry"),
            "field {field} = {value}: {why}"
        );
    }
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

/// A reader that goes away early ends the run quietly, as in
/// `relock inspect victim.rlk | head -1`: exit 0 and nothing on stderr,
/// never a panic on the closed pipe.
#[test]
fn closed_stdout_ends_the_run_quietly() {
    let model = scratch("pipe.rlk");
    let path = model.to_str().expect("utf-8 temp path");
    let lock = relock(&[
        "lock",
        "--arch",
        "mlp",
        "--bits",
        "8",
        "--out",
        path,
        "--no-train",
    ]);
    assert!(lock.status.success(), "lock: {}", stderr(&lock));
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_relock"))
        .args(["inspect", path])
        .stdout(writer)
        .output()
        .expect("spawn relock");
    let _ = std::fs::remove_file(&model);
    assert!(
        !stderr(&out).contains("panicked"),
        "stderr: {}",
        stderr(&out)
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(out.stderr.is_empty(), "stderr: {}", stderr(&out));
}

/// With stderr's reader gone, a run that would print the usage text or an
/// error still exits with its documented code (2 for usage, 1 for a
/// failed command), never 101 from a panic on the closed pipe.
#[test]
fn closed_stderr_keeps_the_exit_code() {
    let cases: [(&[&str], i32); 4] = [
        (&[], 2),
        (&["nonsense"], 2),
        (&["inspect", "x.rlk", "--seeed", "1"], 2),
        (&["inspect", "/nonexistent.rlk"], 1),
    ];
    for (args, code) in cases {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_relock"))
            .args(args)
            .stderr(writer)
            .output()
            .expect("spawn relock");
        assert_eq!(out.status.code(), Some(code), "{args:?}");
    }
}
