//! RLCP byte pins across commits: each run's normalized checkpoint
//! history (wall-clock fields zeroed, every frame in persistence order) is
//! hashed and compared against a digest recorded from an earlier build.
//!
//! The equivalence suites compare two runs of the same build, so a change
//! that moves the format (or the attack's PRNG discipline) on both sides
//! passes them. These digests do not move with the build: a failure here
//! means the bytes a resumed run reads from an older binary's frames have
//! changed, which requires a `CHECKPOINT_VERSION` bump.

use relock_attack::testutil::{lenet_victim, mlp16_victim, run_threads};
use relock_attack::AttackConfig;
use relock_locking::LockedModel;

/// FNV-1a over every frame, each prefixed by its length so frame
/// boundaries count.
fn history_digest(frames: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in frames {
        eat(&(f.len() as u64).to_le_bytes());
        eat(f);
    }
    h
}

fn assert_pinned(model: &LockedModel, cfg: AttackConfig, seed: u64, frames: usize, digest: u64) {
    let run = run_threads(model, cfg, 1, seed);
    let got = history_digest(&run.frames);
    assert_eq!(
        (run.frames.len(), got),
        (frames, digest),
        "seed {seed}: frame history moved (got {} frames, digest {got:#018x})",
        run.frames.len()
    );
}

#[test]
fn mlp16_fast_history_is_pinned() {
    assert_pinned(
        &mlp16_victim(),
        AttackConfig::fast(),
        701,
        6,
        0xccd2_8b6e_7111_1432,
    );
}

#[test]
fn lenet_fast_history_is_pinned() {
    assert_pinned(
        &lenet_victim(),
        AttackConfig::fast(),
        512,
        14,
        0x46a1_2f0c_439c_6a6e,
    );
}

/// Learning-only MLP-16 at seed 732 reaches §3.8 correction, so its
/// history carries `Correcting` cuts with a serialized validation target.
#[test]
fn learning_only_mlp16_history_is_pinned() {
    let cfg = AttackConfig {
        disable_algebraic: true,
        ..AttackConfig::fast()
    };
    assert_pinned(&mlp16_victim(), cfg, 732, 267, 0xb482_b9c3_e227_d9ac);
}
