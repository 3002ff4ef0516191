//! Kill-and-resume soak tests: the attack is killed at scheduled points by
//! a `ChaosOracle` (a panic standing in for SIGKILL), resumed from its
//! last checkpoint with a fresh broker, and must still recover the exact
//! key an uninterrupted run finds — bit-identically, on both an MLP and a
//! LeNet victim, and through the §3.8 correction waves of the learning
//! path. A transient-fault soak checks the retry path end to end, and a
//! mid-soak corruption test checks the clean-fallback contract.

use relock_attack::testutil::{mlp16_victim, sequential_run, strip_clock, RecordingSink, RunTrace};
use relock_attack::{AttackConfig, AttackState, DecryptionReport, Decryptor, MemoryCheckpointSink};
use relock_locking::{CountingOracle, LockSpec, LockedModel, Oracle};
use relock_nn::{build_lenet, build_mlp, LenetSpec, MlpSpec};
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle, RetryPolicy};
use relock_tensor::rng::Prng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn mlp_victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(500);
    build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .unwrap()
}

fn lenet_victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(510);
    build_lenet(
        &LenetSpec {
            in_channels: 1,
            h: 12,
            w: 12,
            c1: 3,
            c2: 4,
            fc1: 10,
            fc2: 8,
            classes: 4,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .unwrap()
}

fn reference_run(model: &LockedModel, attack_seed: u64) -> DecryptionReport {
    let oracle = CountingOracle::new(model);
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    Decryptor::new(AttackConfig::fast())
        .run_brokered(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(attack_seed),
        )
        .unwrap()
}

struct SoakOutcome {
    report: DecryptionReport,
    /// Cumulative-row points at which scheduled crashes actually fired.
    crashes: Vec<u64>,
    /// `(layer_index, phase)` of the checkpoint each post-crash segment
    /// resumed from.
    resume_phases: Vec<(usize, String)>,
}

/// Runs the attack under a crash-only chaos schedule, resuming after every
/// kill until a segment completes. Each segment gets a fresh broker — the
/// checkpoint carries the accounting across the crash — while the chaos
/// oracle (like real hardware) lives through the whole session, so its
/// cumulative-row crash points span segments.
fn soak(model: &LockedModel, attack_seed: u64, crash_at: Vec<u64>) -> SoakOutcome {
    let g = model.white_box();
    let scheduled = crash_at.len();
    let chaos = ChaosOracle::new(
        CountingOracle::new(model),
        ChaosConfig::crash_only(9, crash_at),
    );
    let dec = Decryptor::new(AttackConfig::fast());
    let sink = MemoryCheckpointSink::new();
    let mut crashes = Vec::new();
    let mut resume_phases = Vec::new();
    loop {
        assert!(
            crashes.len() <= scheduled,
            "more unwinds than scheduled crash points"
        );
        if !crashes.is_empty() {
            let bytes = sink.contents().expect("crashed past the first checkpoint");
            let st = AttackState::decode(&bytes).expect("crash must leave a valid checkpoint");
            resume_phases.push((st.layer_index, st.cut.phase_name().to_string()));
        }
        let broker = Broker::with_config(&chaos, BrokerConfig::default());
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Prng::seed_from_u64(attack_seed);
            dec.resume(g, &broker, &mut rng, &sink)
        }));
        match attempt {
            Ok(Ok((report, _status))) => {
                assert_eq!(
                    chaos.counters().crashes,
                    crashes.len() as u64,
                    "chaos counters must agree with observed unwinds"
                );
                return SoakOutcome {
                    report,
                    crashes,
                    resume_phases,
                };
            }
            Ok(Err(e)) => panic!("attack error during soak: {e}"),
            Err(payload) => {
                let crash = payload
                    .downcast::<ChaosCrash>()
                    .expect("only scheduled chaos crashes should unwind");
                crashes.push(crash.at_rows);
            }
        }
    }
}

fn assert_soak_matches_reference(model: &LockedModel, attack_seed: u64) {
    // The reference runs through `resume` with a recording sink, which is
    // bit-identical to a plain run by contract, so its frames show where
    // the soak's checkpoints will land.
    let RunTrace {
        report: reference,
        frames,
    } = sequential_run(model, &AttackConfig::fast(), attack_seed);
    assert_eq!(
        reference.fidelity(model.true_key()),
        1.0,
        "reference run must recover the key exactly"
    );
    // Crash points derived from the uninterrupted run's traffic so the
    // kills land inside the attack, spread across its lifetime. The first
    // kill waits for the first persisted checkpoint: a kill before it
    // leaves nothing to resume from.
    let q = reference.queries;
    assert!(q > 16, "victim too small to place crash points ({q} rows)");
    let first_frame = AttackState::decode(&frames[0]).expect("reference wrote a valid frame");
    let crash_at = vec![(q / 8).max(first_frame.queries + 1), q / 2, (q * 3) / 4];
    let soaked = soak(model, attack_seed, crash_at);

    assert!(
        soaked.crashes.len() >= 3,
        "expected at least 3 kills, got {:?}",
        soaked.crashes
    );
    assert!(
        soaked
            .resume_phases
            .iter()
            .any(|(_, phase)| phase != "layer-start"),
        "no kill landed mid-layer: {:?}",
        soaked.resume_phases
    );
    assert_eq!(
        soaked.report.key, reference.key,
        "resumed key must be bit-identical to the uninterrupted run"
    );
    assert_eq!(soaked.report.fidelity(model.true_key()), 1.0);
    assert_eq!(soaked.report.layers.len(), reference.layers.len());
    for (s, r) in soaked.report.layers.iter().zip(&reference.layers) {
        assert_eq!(s.keyed_node, r.keyed_node);
        assert_eq!(s.bits, r.bits);
        assert_eq!(
            (s.algebraic, s.learned, s.corrected),
            (r.algebraic, r.learned, r.corrected),
            "per-layer decisions must replay identically"
        );
    }
    assert!(
        soaked.report.queries >= reference.queries,
        "replayed segments cannot spend fewer rows than the clean run"
    );
}

#[test]
fn mlp_survives_scheduled_kills_bit_identically() {
    assert_soak_matches_reference(&mlp_victim(), 501);
}

#[test]
fn lenet_survives_scheduled_kills_bit_identically() {
    assert_soak_matches_reference(&lenet_victim(), 512);
}

/// A checkpoint corrupted *between* segments (disk rot, torn copy) must
/// not poison the session: the next segment falls back to a fresh run and
/// the remaining crash points still fire and resume normally.
#[test]
fn corrupted_mid_soak_checkpoint_still_recovers_exact_key() {
    let model = mlp_victim();
    let reference = reference_run(&model, 501);
    let q = reference.queries;
    let g = model.white_box();
    let chaos = ChaosOracle::new(
        CountingOracle::new(&model),
        ChaosConfig::crash_only(9, vec![q / 4, q / 2 + q / 4]),
    );
    let dec = Decryptor::new(AttackConfig::fast());
    let sink = MemoryCheckpointSink::new();
    let mut kills = 0u32;
    let report = loop {
        let broker = Broker::with_config(&chaos, BrokerConfig::default());
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Prng::seed_from_u64(501);
            dec.resume(g, &broker, &mut rng, &sink)
        }));
        match attempt {
            Ok(Ok((report, _))) => break report,
            Ok(Err(e)) => panic!("attack error: {e}"),
            Err(payload) => {
                payload.downcast::<ChaosCrash>().expect("scheduled crash");
                kills += 1;
                if kills == 1 {
                    // Rot the snapshot the first resume would load.
                    let mut bytes = sink.contents().expect("checkpoint written");
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x10;
                    sink.set(Some(bytes));
                }
            }
        }
    };
    assert_eq!(kills, 2);
    assert_eq!(report.key, reference.key);
    assert_eq!(report.fidelity(model.true_key()), 1.0);
}

/// Transient chaos faults (dropped requests) are absorbed by the broker's
/// retry policy without perturbing the recovered key, and the injected
/// fault count is published into the broker's statistics.
#[test]
fn attack_succeeds_through_transient_chaos_with_retries() {
    let model = mlp_victim();
    let chaos = ChaosOracle::new(
        CountingOracle::new(&model),
        ChaosConfig {
            seed: 13,
            transient_rate: 0.10,
            ..ChaosConfig::default()
        },
    );
    let broker = Broker::with_config(
        &chaos,
        BrokerConfig {
            retry: RetryPolicy {
                max_attempts: 24,
                base_backoff: Duration::ZERO,
                multiplier: 1,
                ..RetryPolicy::default()
            },
            ..BrokerConfig::default()
        },
    );
    let report = Decryptor::new(AttackConfig::fast())
        .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(501))
        .unwrap();
    assert_eq!(report.fidelity(model.true_key()), 1.0);

    chaos.sync_stats(broker.stats());
    let snap = broker.snapshot();
    assert!(snap.injected_faults > 0, "10% drop rate must inject faults");
    assert_eq!(snap.injected_faults, chaos.counters().transient_errors);
    assert_eq!(
        snap.retries, snap.injected_faults,
        "every transient error costs exactly one retry"
    );

    // And the values never drifted: a clean oracle agrees bit-for-bit.
    let clean = reference_run(&model, 501);
    assert_eq!(report.key, clean.key);
}

/// Concurrency soak: the sharded engine (4 workers) hammers a chaotic
/// oracle that injects transient faults *and* latency spikes, so worker
/// threads pile up on the broker while retries reorder its traffic. The
/// fault schedule interleaves with the thread schedule, so query totals
/// are not compared against a clean run — what must survive contention is
/// (a) the recovered key, still bit-identical to a clean sequential run,
/// and (b) the broker's books: every requested row is either a cache hit
/// or an underlying row, globally and within every procedure scope, and
/// the underlying total agrees with the oracle's own row counter — no
/// row lost or double-counted anywhere.
#[test]
fn parallel_attack_under_transient_chaos_keeps_exact_accounting() {
    let model = mlp_victim();
    let clean = reference_run(&model, 501);
    assert_eq!(clean.fidelity(model.true_key()), 1.0);

    let chaos = ChaosOracle::new(
        CountingOracle::new(&model),
        ChaosConfig {
            seed: 29,
            transient_rate: 0.08,
            latency_spike_rate: 0.05,
            latency_spike: Duration::from_micros(300),
            ..ChaosConfig::default()
        },
    );
    let broker = Broker::with_config(
        &chaos,
        BrokerConfig {
            retry: RetryPolicy {
                max_attempts: 24,
                base_backoff: Duration::ZERO,
                multiplier: 1,
                ..RetryPolicy::default()
            },
            ..BrokerConfig::default()
        },
    );
    let cfg = AttackConfig {
        threads: 4,
        ..AttackConfig::fast()
    };
    let report = Decryptor::new(cfg)
        .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(501))
        .unwrap();
    assert_eq!(
        report.key, clean.key,
        "chaos under contention must not perturb the recovered key"
    );
    assert_eq!(report.fidelity(model.true_key()), 1.0);

    chaos.sync_stats(broker.stats());
    let snap = broker.snapshot();
    assert!(
        snap.injected_faults > 0,
        "fault schedule must actually fire"
    );
    assert!(
        snap.is_balanced(),
        "requested must equal cache_hits + underlying globally and per scope: {snap:?}"
    );
    assert_eq!(
        snap.underlying,
        chaos.query_count(),
        "broker's underlying total must agree with the oracle's row counter"
    );
    assert_eq!(report.queries, snap.underlying);
}

/// Kill-and-resume across RLCP cuts on the learning path (ablation A1),
/// where seed 732 runs §3.8 correction waves: wave boundaries replay from
/// the checkpointed candidate index, so two independent crash-and-resume
/// soaks land on the same key (identical to the uninterrupted run) with
/// the same cumulative query count as each other.
#[test]
fn corrected_run_replays_across_checkpoint_resume() {
    let victim = mlp16_victim();
    let cfg = AttackConfig {
        disable_algebraic: true,
        ..AttackConfig::fast()
    };
    let reference = sequential_run(&victim, &cfg, 732);
    let q = reference.report.queries;
    let crash_at: Vec<u64> = (1..=3).map(|i| i * q / 4).collect();

    let crash_and_resume = |schedule: &[u64]| {
        let chaos = ChaosOracle::new(
            CountingOracle::new(&victim),
            ChaosConfig::crash_only(11, schedule.to_vec()),
        );
        let dec = Decryptor::new(cfg);
        let sink = RecordingSink::default();
        let mut crashes = 0usize;
        let report = loop {
            assert!(
                crashes <= schedule.len(),
                "more unwinds than scheduled crash points"
            );
            let broker = Broker::with_config(&chaos, BrokerConfig::default());
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let mut rng = Prng::seed_from_u64(732);
                dec.resume(victim.white_box(), &broker, &mut rng, &sink)
            }));
            match attempt {
                Ok(Ok((report, status))) => {
                    if crashes > 0 {
                        assert!(
                            status.resumed(),
                            "post-crash segments must resume from a checkpoint"
                        );
                    }
                    break report;
                }
                Ok(Err(e)) => panic!("attack error during correction soak: {e}"),
                Err(payload) => {
                    payload
                        .downcast::<ChaosCrash>()
                        .expect("only scheduled chaos crashes should unwind");
                    crashes += 1;
                }
            }
        };
        assert!(crashes > 0, "the soak must actually crash");
        report
    };

    let a = crash_and_resume(&crash_at);
    let b = crash_and_resume(&crash_at);
    assert_eq!(a.key, reference.report.key, "resumed run lost the key");
    assert_eq!(a.fidelity(victim.true_key()), 1.0);
    assert_eq!(
        a.key, b.key,
        "two identical soaks must land on the same key"
    );
    assert_eq!(
        a.queries, b.queries,
        "two identical soaks must replay the same traffic"
    );
    assert_eq!(
        strip_clock(&a.stats),
        strip_clock(&b.stats),
        "two identical soaks must keep identical books"
    );
}
