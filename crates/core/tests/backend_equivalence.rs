//! End-to-end backend equivalence: the whole decryption attack — key,
//! query traffic, and every checkpoint frame — must be **byte-identical**
//! whichever gemm backend executes it.
//!
//! The kernels guarantee bit-identical f64 results across backends (each
//! SIMD lane replays the scalar accumulation order; see DESIGN.md), so
//! everything downstream of them — bisection trajectories, learned
//! multipliers, broker traffic, serialized checkpoints — must agree to
//! the last bit. This test closes the loop from the kernel contract to
//! the attack's observable artifacts: it runs every attack once under the
//! scalar pin and once on the CPU-detected backend, and prints which
//! backend it compared. On a host without AVX-512 the detected backend is
//! the scalar one, so the test then compares scalar against itself.
//!
//! Everything lives in ONE `#[test]` because the scalar pin is
//! process-global: concurrent test threads flipping it would race.

use relock_attack::{
    AttackConfig, AttackState, Decryptor, MemoryCheckpointSink, MonolithicAttack, MonolithicConfig,
};
use relock_locking::{CountingOracle, Key, LockSpec, LockedModel};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::backend::{active_backend, force_scalar};
use relock_tensor::rng::Prng;

fn victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(7100);
    build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![8, 6],
            classes: 4,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .expect("spec fits")
}

/// Key + query count + final checkpoint bytes of a full checkpointed
/// decryption run, on the scalar reference when `scalar` pins it and on
/// the detected backend otherwise.
fn decryption_under(scalar: bool, model: &LockedModel) -> (Key, u64, Vec<u8>) {
    force_scalar(scalar);
    let oracle = CountingOracle::new(model);
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let sink = MemoryCheckpointSink::new();
    let report = Decryptor::new(AttackConfig::fast())
        .run_with_checkpoints(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(7101),
            &sink,
        )
        .expect("attack run");
    force_scalar(false);
    let frame = sink.contents().expect("at least one checkpoint frame");
    (report.key, report.queries, normalize_frame(&frame))
}

/// Re-encodes a checkpoint frame with its only non-deterministic content
/// — wall-clock timings — zeroed. Everything else (key bits, PRNG state,
/// layer reports, warm multiplier bit patterns, query accounting) must
/// then be byte-identical across backends.
fn normalize_frame(bytes: &[u8]) -> Vec<u8> {
    let mut state = AttackState::decode(bytes).expect("valid checkpoint frame");
    state.timing_nanos = [0; 4];
    state.stats.oracle_time = std::time::Duration::ZERO;
    state.encode()
}

/// Key + query count + multiplier bit patterns of the monolithic learning
/// attack, scalar-pinned or on the detected backend.
fn monolithic_under(scalar: bool, model: &LockedModel) -> (Key, u64, Vec<u64>) {
    force_scalar(scalar);
    let oracle = CountingOracle::new(model);
    let mut cfg = MonolithicConfig {
        input_scale: 2.0,
        ..MonolithicConfig::default()
    };
    cfg.learning.samples = 96;
    cfg.learning.epochs = 30;
    let report =
        MonolithicAttack::new(cfg).run(model.white_box(), &oracle, &mut Prng::seed_from_u64(7102));
    force_scalar(false);
    let bits = report.multipliers.iter().map(|m| m.to_bits()).collect();
    (report.key, report.queries, bits)
}

#[test]
fn attacks_are_byte_identical_across_backends() {
    let model = victim();
    let detected = active_backend().name();
    println!("comparing scalar against {detected}");

    // Full decryption attack: key, traffic, and checkpoint frames agree.
    let (ref_key, ref_queries, ref_frame) = decryption_under(true, &model);
    let (key, queries, frame) = decryption_under(false, &model);
    assert_eq!(key, ref_key, "{detected}: extracted key diverged");
    assert_eq!(queries, ref_queries, "{detected}: query traffic diverged");
    assert_eq!(frame, ref_frame, "{detected}: checkpoint bytes diverged");

    // Monolithic learning attack at f64: multipliers agree to the bit.
    let (ref_key, ref_queries, ref_bits) = monolithic_under(true, &model);
    let (key, queries, bits) = monolithic_under(false, &model);
    assert_eq!(key, ref_key, "{detected}: monolithic f64 key diverged");
    assert_eq!(queries, ref_queries);
    assert_eq!(bits, ref_bits, "{detected}: f64 multiplier bits diverged");
}
