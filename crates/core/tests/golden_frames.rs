//! RLCP byte pins across commits: each run's normalized checkpoint
//! history (wall-clock fields zeroed, every frame in persistence order) is
//! hashed and compared against a digest recorded from an earlier build.
//!
//! The equivalence suites compare two runs of the same build, so a change
//! that moves the format (or the attack's PRNG discipline) on both sides
//! passes them. These digests do not move with the build: a failure here
//! means the bytes a resumed run reads from an older binary's frames have
//! changed, which requires a `CHECKPOINT_VERSION` bump.
//!
//! The searches that write no frames (the monolithic baseline, the
//! sampling search and the neuroevolution) are pinned the same way, on
//! their key plus the bits of their score or multipliers: a failure there
//! means a fixed budget or tolerance moved.

use relock_attack::testutil::{lenet_victim, mlp16_victim, run_threads, variant_victim};
use relock_attack::{
    neuroevolution_key_search, sampling_key_search, AttackConfig, LearningConfig, MonolithicAttack,
};
use relock_locking::{CountingOracle, Key, LockVariant, LockedModel};
use relock_tensor::rng::Prng;

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

/// The default configuration runs every tolerance and budget the fast
/// one shares plus its own larger budgets, so its history pins them all.
#[test]
fn mlp16_default_history_is_pinned() {
    assert_pinned(
        &mlp16_victim(),
        AttackConfig::default(),
        703,
        6,
        0xb11f_8348_155a_c696,
    );
}

/// FNV-1a over a search's key bits, the bits of its score or
/// multipliers, and its query count.
fn search_digest(key: &Key, reals: &[f64], queries: u64) -> u64 {
    let bits: Vec<u8> = key.bits().iter().map(|&b| u8::from(b)).collect();
    let reals: Vec<u8> = reals
        .iter()
        .flat_map(|r| r.to_bits().to_le_bytes())
        .collect();
    history_digest(&[bits, reals, queries.to_le_bytes().to_vec()])
}

fn assert_search_pinned(what: &str, key: &Key, reals: &[f64], queries: u64, digest: u64) {
    let got = search_digest(key, reals, queries);
    assert_eq!(got, digest, "{what}: search moved (digest {got:#018x})");
}

#[test]
fn monolithic_search_is_pinned() {
    let model = mlp16_victim();
    let report = MonolithicAttack::new(LearningConfig::monolithic()).run(
        model.white_box(),
        &CountingOracle::new(&model),
        &mut Prng::seed_from_u64(704),
    );
    assert_search_pinned(
        "monolithic",
        &report.key,
        &report.multipliers,
        report.queries,
        0x1e10_1a0b_a67a_e836,
    );
}

#[test]
fn sampling_search_is_pinned() {
    let model = variant_victim(LockVariant::SarTrigger, 10, 770);
    let report = sampling_key_search(
        model.white_box(),
        &CountingOracle::new(&model),
        &AttackConfig::fast(),
        &mut Prng::seed_from_u64(705),
    );
    assert_search_pinned(
        "sampling",
        &report.key,
        &[report.agreement],
        report.queries,
        0x7a89_8d3c_a4ef_7470,
    );
}

#[test]
fn neuroevolution_search_is_pinned() {
    let model = mlp16_victim();
    let report = neuroevolution_key_search(model.white_box(), &mut Prng::seed_from_u64(706));
    assert_search_pinned(
        "neuroevolution",
        &report.key,
        &[report.score],
        report.queries,
        0xb9fe_007e_a0af_2b42,
    );
}
