//! Bit-identical parallel equivalence: the sharded recovery engine at 2,
//! 4, and 8 worker threads must reproduce the sequential run *exactly* —
//! recovered key, underlying query count, broker accounting, per-layer
//! decisions, and every checkpoint frame byte-for-byte (wall-clock fields
//! zeroed). This is the determinism contract of DESIGN.md §3e, checked as
//! a seeded sweep over two victim architectures and over the algebraic,
//! learning, and error-correction paths.
//!
//! Victims, sinks, normalizers, and the trace assertions live in
//! `relock_attack::testutil`, shared with the distributed and
//! lock-variant suites.

use relock_attack::testutil::{lenet_victim, mlp16_victim, run_threads, strip_clock};
use relock_attack::AttackConfig;
use relock_locking::LockedModel;

/// Runs the sweep: `threads = 1` is the reference; 2, 4, and 8 must match
/// it bit-for-bit on every observable the engine promises to keep stable.
fn assert_parallel_matches_sequential(
    model: &LockedModel,
    cfg: AttackConfig,
    seeds: &[u64],
    label: &str,
) {
    for &seed in seeds {
        let reference = run_threads(model, cfg, 1, seed);
        assert_eq!(
            reference.report.fidelity(model.true_key()),
            1.0,
            "{label} seed {seed}: sequential reference must recover the key exactly"
        );
        assert!(
            !reference.frames.is_empty(),
            "{label} seed {seed}: a checkpointed run must persist at least one frame"
        );
        for threads in [2usize, 4, 8] {
            let t = run_threads(model, cfg, threads, seed);
            let ctx = format!("{label} seed {seed} threads {threads}");
            assert_eq!(
                t.report.key, reference.report.key,
                "{ctx}: recovered key diverged"
            );
            assert_eq!(
                t.report.queries, reference.report.queries,
                "{ctx}: underlying query count diverged"
            );
            assert_eq!(
                strip_clock(&t.report.stats),
                strip_clock(&reference.report.stats),
                "{ctx}: broker accounting diverged"
            );
            assert_eq!(
                t.report.layers.len(),
                reference.report.layers.len(),
                "{ctx}: layer count diverged"
            );
            for (p, r) in t.report.layers.iter().zip(&reference.report.layers) {
                assert_eq!(p.keyed_node, r.keyed_node, "{ctx}: layer order diverged");
                assert_eq!(
                    (p.bits, p.algebraic, p.learned, p.corrected, p.validated),
                    (r.bits, r.algebraic, r.learned, r.corrected, r.validated),
                    "{ctx}: per-layer decisions diverged at node {:?}",
                    p.keyed_node
                );
                assert_eq!(
                    p.validation_rounds, r.validation_rounds,
                    "{ctx}: validation traffic diverged at node {:?}",
                    p.keyed_node
                );
            }
            assert_eq!(
                t.frames.len(),
                reference.frames.len(),
                "{ctx}: checkpoint cadence diverged"
            );
            for (i, (p, r)) in t.frames.iter().zip(&reference.frames).enumerate() {
                assert_eq!(
                    p,
                    r,
                    "{ctx}: checkpoint frame {i} of {} is not byte-identical",
                    reference.frames.len()
                );
            }
        }
    }
}

#[test]
fn mlp16_sweep_is_bit_identical_across_thread_counts() {
    assert_parallel_matches_sequential(
        &mlp16_victim(),
        AttackConfig::fast(),
        &[701, 702, 703],
        "mlp16",
    );
}

#[test]
fn lenet_sweep_is_bit_identical_across_thread_counts() {
    assert_parallel_matches_sequential(&lenet_victim(), AttackConfig::fast(), &[512, 516], "lenet");
}

/// Forcing the learning path (ablation A1) drags every layer through the
/// §3.6 training harvest, §3.7 validation, and — on layers the learner
/// leaves imperfect — §3.8 wave correction, so this sweep pins the paths
/// the algebraic runs may skip. Both seeds commit corrected bits through
/// the wave-commit merge: seed 700 flips 5 bits of its first layer, seed
/// 732 flips 8 there and 3 in the second.
#[test]
fn learning_and_correction_paths_are_bit_identical_across_thread_counts() {
    let cfg = AttackConfig {
        disable_algebraic: true,
        ..AttackConfig::fast()
    };
    let victim = mlp16_victim();
    assert_parallel_matches_sequential(&victim, cfg, &[700, 732], "mlp16-learned");
    let corrected: usize = run_threads(&victim, cfg, 1, 732)
        .report
        .layers
        .iter()
        .map(|l| l.corrected)
        .sum();
    assert!(
        corrected > 0,
        "seed 732 must exercise the error-correction wave path"
    );
}
