//! Differential conformance over the lock-variant × attack matrix.
//!
//! Every cell of the matrix must be bit-identical however the engine is
//! spread out. For the oracle-guided decryption cells that means the
//! full [`RunTrace`] contract — key, query count, broker accounting, and
//! every checkpoint frame byte-for-byte — across thread counts.
//! The sampling and oracle-less cells are sequential by construction, so
//! their conformance axis is replay: identical seeds must reproduce the
//! identical key, score, and query count.

use relock_attack::testutil::{run_threads, variant_victim};
use relock_attack::{
    neuroevolution_key_search, sampling_key_search, weight_stats_attack, AttackConfig,
};
use relock_locking::{CountingOracle, Key, LockVariant};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::rng::Prng;

const UNIT_VARIANTS: [LockVariant; 2] = [LockVariant::Sign, LockVariant::Scale(0.25)];
const TRIGGER_VARIANTS: [LockVariant; 2] = [LockVariant::SarTrigger, LockVariant::AntiSatTrigger];

fn attack_cfg(variant: LockVariant) -> AttackConfig {
    AttackConfig {
        variant,
        ..AttackConfig::fast()
    }
}

/// Oracle-guided cells on unit locks: the decryption pipeline must
/// produce byte-identical traces at 1 and 4 threads, and recover the key
/// exactly.
#[test]
fn decrypt_cells_are_thread_invariant_on_unit_locks() {
    for (i, &variant) in UNIT_VARIANTS.iter().enumerate() {
        let model = variant_victim(variant, 10, 760 + i as u64);
        let cfg = attack_cfg(variant);
        let reference = run_threads(&model, cfg, 1, 761);
        assert_eq!(
            reference.report.key,
            *model.true_key(),
            "{variant}: the decryption attack must stay exact on unit locks"
        );
        let parallel = run_threads(&model, cfg, 4, 761);
        relock_attack::testutil::assert_traces_match(
            &parallel,
            &reference,
            &format!("{variant} decrypt @4 threads"),
        );
    }
}

/// Oracle-guided cells on trigger locks run the sampling attack. It is a
/// single sequential segment, so the conformance axis is replay; the
/// cell must also demonstrate the degradation the matrix exists to show:
/// near-perfect probe agreement with an imperfect key.
#[test]
fn sampling_cells_replay_identically_and_show_the_flat_landscape() {
    for (i, &variant) in TRIGGER_VARIANTS.iter().enumerate() {
        let model = variant_victim(variant, 10, 770 + i as u64);
        let cfg = attack_cfg(variant);
        let run = |seed: u64| {
            let oracle = CountingOracle::new(&model);
            let broker = Broker::with_config(&oracle, BrokerConfig::default());
            sampling_key_search(
                model.white_box(),
                &broker,
                &cfg,
                &mut Prng::seed_from_u64(seed),
            )
        };
        let a = run(771);
        let b = run(771);
        assert_eq!(a.key, b.key, "{variant}: sampling replay diverged");
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.agreement.to_bits(), b.agreement.to_bits());
        assert!(
            a.agreement >= 0.95,
            "{variant}: random probes almost surely miss the trigger subspace \
             (agreement {}), so the landscape reads as solved",
            a.agreement
        );
        assert!(
            a.key.fidelity(model.true_key()) < 1.0,
            "{variant}: a flat landscape must not hand over the exact key"
        );
    }
}

/// The weight-statistics cells: query-free and replay-deterministic on
/// every variant, with zero features (hence a weightless guess) on
/// trigger comparators.
#[test]
fn weight_stats_cells_are_query_free_and_deterministic() {
    for (i, &variant) in UNIT_VARIANTS.iter().chain(&TRIGGER_VARIANTS).enumerate() {
        let victim = variant_victim(variant, 10, 780 + i as u64);
        let train_a = variant_victim(variant, 10, 880 + i as u64);
        let train_b = variant_victim(variant, 10, 980 + i as u64);
        let training = [
            (train_a.white_box(), train_a.true_key()),
            (train_b.white_box(), train_b.true_key()),
        ];
        let epochs = attack_cfg(variant).learning.epochs;
        let a = weight_stats_attack(victim.white_box(), &training, epochs);
        let b = weight_stats_attack(victim.white_box(), &training, epochs);
        assert_eq!(a.key, b.key, "{variant}: classifier replay diverged");
        assert_eq!(a.queries, 0, "{variant}: the attack must never query");
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

/// The neuroevolution cells: query-free, and bit-identical under seed
/// replay on every variant.
#[test]
fn neuroevolution_cells_are_query_free_and_deterministic() {
    for (i, &variant) in UNIT_VARIANTS.iter().chain(&TRIGGER_VARIANTS).enumerate() {
        let victim = variant_victim(variant, 10, 790 + i as u64);
        let run = |seed: u64| {
            neuroevolution_key_search(victim.white_box(), &mut Prng::seed_from_u64(seed))
        };
        let a = run(791);
        let b = run(791);
        assert_eq!(a.key, b.key, "{variant}: evolution replay diverged");
        assert_eq!(a.queries, 0, "{variant}: the attack must never query");
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        // A different seed explores a different population — the search
        // is rng-driven, not a constant function of the victim.
        let c = run(4791);
        assert!(
            c.key != a.key || c.score.to_bits() == a.score.to_bits(),
            "{variant}: distinct seeds should not be forced to collide"
        );
    }
}

/// Trigger keys honour the allocator's constraints: regenerating the
/// same victim yields the same (constraint-satisfying) key, and a
/// different seed yields a different key — the conformance suite's
/// guard against constraint application being dropped somewhere in the
/// builder path.
#[test]
fn trigger_victims_are_reproducible_and_seed_sensitive() {
    for &variant in &TRIGGER_VARIANTS {
        let a = variant_victim(variant, 10, 8100);
        let b = variant_victim(variant, 10, 8100);
        assert_eq!(a.true_key(), b.true_key());
        let c = variant_victim(variant, 10, 8101);
        assert_ne!(
            a.true_key(),
            c.true_key(),
            "{variant}: distinct seeds must draw distinct keys"
        );
        assert_ne!(a.true_key(), &Key::zeros(10));
    }
}
