//! Kill-and-resume: crash the attack mid-run, then continue it from its
//! checkpoint and recover the exact same key.
//!
//! ```text
//! cargo run --release --example resume
//! ```
//!
//! A multi-hour attack against production hardware will get killed —
//! deploy restarts, OOM, a flaky oracle link. This example compresses that
//! story into seconds:
//!
//! 1. An uninterrupted **reference** run records the ground truth.
//! 2. The same attack runs with checkpointing against a `ChaosOracle`
//!    scheduled to crash (panic) partway through. The segment dies, the
//!    checkpoint file survives.
//! 3. `Decryptor::resume` loads the checkpoint, skips the finished
//!    layers, continues mid-layer, and produces a key **bit-identical**
//!    to the reference run.
//!
//! The same flags exist on the CLI: `relock attack victim.rlk
//! --checkpoint state.rlcp`, and after a crash `relock attack victim.rlk
//! --checkpoint state.rlcp --resume`.

use relock::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = Prng::seed_from_u64(2024);
    let spec = MlpSpec {
        input: 16,
        hidden: vec![14, 10],
        classes: 4,
    };
    let model = build_mlp(&spec, LockSpec::evenly(12), &mut rng)?;
    println!("victim: MLP {spec:?}, {}-bit key", model.true_key().len());

    // ---- 1. Uninterrupted reference run --------------------------------
    let oracle = CountingOracle::new(&model);
    let decryptor = Decryptor::new(AttackConfig::fast());
    let reference = decryptor.run(model.white_box(), &oracle, &mut Prng::seed_from_u64(7))?;
    println!(
        "reference run : fidelity {:.0}%, {} oracle rows",
        100.0 * reference.fidelity(model.true_key()),
        reference.queries
    );

    // ---- 2. The same attack, killed partway through --------------------
    let ckpt_path = std::env::temp_dir().join("relock-resume-example.rlcp");
    let sink = FileCheckpointSink::new(&ckpt_path);
    // Crash once the backend has served half the reference traffic.
    let chaos = ChaosOracle::new(
        CountingOracle::new(&model),
        ChaosConfig::crash_only(1, vec![reference.queries / 2]),
    );
    let broker = Broker::new(&chaos);
    // The scheduled crash is the point of the demo — keep its panic quiet.
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        decryptor.run_with_checkpoints(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(7),
            &sink,
        )
    }));
    let _ = std::panic::take_hook();
    let crash = crashed
        .expect_err("the chaos schedule guarantees a crash")
        .downcast::<ChaosCrash>()
        .expect("scheduled chaos crash");
    println!(
        "killed        : after {} oracle rows (checkpoint at {})",
        crash.at_rows,
        ckpt_path.display()
    );

    // ---- 3. Resume from the checkpoint ---------------------------------
    // A fresh broker, a fresh process in real life; the snapshot carries
    // the PRNG state, recovered bits, and accounting across the crash.
    let broker = Broker::new(&chaos);
    let (resumed, status) = decryptor.resume(
        model.white_box(),
        &broker,
        &mut Prng::seed_from_u64(7),
        &sink,
    )?;
    match &status {
        ResumeStatus::Resumed { layer, phase } => {
            println!("resumed       : at layer {layer}, phase {phase}");
        }
        other => println!("resumed       : unexpected status {other:?}"),
    }
    println!(
        "resumed run   : fidelity {:.0}%, {} oracle rows total",
        100.0 * resumed.fidelity(model.true_key()),
        resumed.queries
    );

    assert_eq!(resumed.key, reference.key, "keys must be bit-identical");
    println!(
        "recovered key : {} (bit-identical to the reference)",
        resumed.key
    );

    std::fs::remove_file(&ckpt_path).ok();
    Ok(())
}
