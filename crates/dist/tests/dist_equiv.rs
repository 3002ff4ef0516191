//! Distributed equivalence and process-chaos suite: the multi-process
//! coordinator at 1, 2, and 4 worker processes must reproduce the
//! in-process sequential run *exactly* — recovered key, underlying query
//! count, broker accounting, and every checkpoint frame byte-for-byte —
//! and must keep doing so while workers are killed mid-query, stall their
//! heartbeats, or truncate frames on the wire. A kill-and-resume sweep
//! checks that RLCP checkpoints carry a distributed run across coordinator
//! crashes, and a budget-exhaustion test checks the circuit breaker's
//! in-process fallback.
//!
//! Victims, sinks, normalizers, and the trace assertions live in
//! `relock_attack::testutil`, shared with the in-process thread sweep and
//! the lock-variant matrix suite.

use relock_attack::testutil::{
    assert_chaos_traces_match, assert_traces_match, lenet_victim, mlp16_victim, normalize_frame,
    sequential_run, variant_victim, ModelFile, RecordingSink, RunTrace,
};
use relock_attack::{AttackConfig, CheckpointPolicy, Decryptor};
use relock_dist::{DistChaos, DistCoordinator, DistOptions, DistReport};
use relock_locking::{CountingOracle, LockVariant, LockedModel};
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle};
use relock_tensor::rng::Prng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_dist_worker")
}

/// Runs the attack through a [`DistCoordinator`] over real worker
/// processes.
fn dist_run(
    model: &LockedModel,
    model_file: &ModelFile,
    cfg: &AttackConfig,
    attack_seed: u64,
    opts: DistOptions,
) -> (RunTrace, DistReport) {
    let coord = DistCoordinator::new(&model_file.path, opts).expect("bind coordinator socket");
    let oracle = CountingOracle::new(model);
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let sink = RecordingSink::default();
    let (report, _status) = Decryptor::new(*cfg)
        .resume_with(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(attack_seed),
            &sink,
            CheckpointPolicy::EVERY_CUT,
            &coord,
        )
        .unwrap();
    let dist_report = coord.report();
    (
        RunTrace {
            report,
            frames: sink.frames().iter().map(|f| normalize_frame(f)).collect(),
        },
        dist_report,
    )
}

/// The headline contract: 1 process == 2 processes == 4 processes,
/// byte-for-byte, against the in-process sequential reference.
fn assert_dist_matches_sequential(model: &LockedModel, seeds: &[u64], label: &str) {
    let cfg = AttackConfig::fast();
    let file = ModelFile::save(model);
    for &seed in seeds {
        let reference = sequential_run(model, &cfg, seed);
        assert_eq!(
            reference.report.fidelity(model.true_key()),
            1.0,
            "{label} seed {seed}: sequential reference must recover the key exactly"
        );
        for workers in [1usize, 2, 4] {
            let mut opts = DistOptions::new(worker_bin());
            opts.workers = workers;
            let (t, dist) = dist_run(model, &file, &cfg, seed, opts);
            let ctx = format!("{label} seed {seed} workers {workers}");
            assert_traces_match(&t, &reference, &ctx);
            assert_eq!(dist.fell_back, None, "{ctx}: no fallback expected");
            assert_eq!(dist.respawns, 0, "{ctx}: no respawns expected");
        }
    }
}

#[test]
fn mlp16_worker_sweep_is_byte_identical_to_sequential() {
    assert_dist_matches_sequential(&mlp16_victim(), &[701, 702], "mlp16");
}

#[test]
fn lenet_worker_sweep_is_byte_identical_to_sequential() {
    assert_dist_matches_sequential(&lenet_victim(), &[512], "lenet");
}

/// The learning path (ablation A1: no Algorithm 1) sends every layer
/// through learning, validation and, on these seeds, §3.8 correction
/// waves: 1 and 4 worker processes reproduce the in-process sequential
/// run byte-for-byte through the phases the fast sweeps above skip.
#[test]
fn learning_path_worker_sweep_is_byte_identical_to_sequential() {
    let model = mlp16_victim();
    let cfg = AttackConfig {
        disable_algebraic: true,
        ..AttackConfig::fast()
    };
    let file = ModelFile::save(&model);
    for seed in [700u64, 732] {
        let reference = sequential_run(&model, &cfg, seed);
        assert_eq!(
            reference.report.fidelity(model.true_key()),
            1.0,
            "learning-path seed {seed}: sequential reference must recover the key exactly"
        );
        for workers in [1usize, 4] {
            let mut opts = DistOptions::new(worker_bin());
            opts.workers = workers;
            let (t, dist) = dist_run(&model, &file, &cfg, seed, opts);
            let ctx = format!("learning-path seed {seed} workers {workers}");
            assert_traces_match(&t, &reference, &ctx);
            assert_eq!(dist.fell_back, None, "{ctx}: no fallback expected");
        }
    }
}

/// Trigger-locked victims have no per-unit lock sites, so the coordinator
/// has nothing to route — but a distributed run must still complete and
/// reproduce the in-process trace byte-for-byte rather than wedge or
/// panic on an empty work list.
#[test]
fn trigger_victims_survive_the_worker_sweep_byte_identically() {
    for (variant, label) in [
        (LockVariant::SarTrigger, "sar"),
        (LockVariant::AntiSatTrigger, "antisat"),
    ] {
        let model = variant_victim(variant, 8, 700);
        let cfg = AttackConfig {
            variant,
            ..AttackConfig::fast()
        };
        let file = ModelFile::save(&model);
        let reference = sequential_run(&model, &cfg, 701);
        for workers in [1usize, 2] {
            let mut opts = DistOptions::new(worker_bin());
            opts.workers = workers;
            let (t, dist) = dist_run(&model, &file, &cfg, 701, opts);
            let ctx = format!("{label} trigger workers {workers}");
            assert_traces_match(&t, &reference, &ctx);
            assert_eq!(dist.fell_back, None, "{ctx}: no fallback expected");
        }
    }
}

/// `kill -9` at scheduled routed-row points: the querying worker dies
/// before its batch reaches the broker, the lease expires, a replacement
/// respawns after the seeded backoff, and the final result is still
/// byte-identical to the sequential run.
#[test]
fn process_kill_chaos_recovers_the_exact_key() {
    let model = mlp16_victim();
    let cfg = AttackConfig::fast();
    let file = ModelFile::save(&model);
    let reference = sequential_run(&model, &cfg, 701);
    // Kill points live in routed-row space (worker-proxied traffic only),
    // so anchor them to a clean distributed run's actual totals.
    let mut probe_opts = DistOptions::new(worker_bin());
    probe_opts.workers = 4;
    let (_, clean) = dist_run(&model, &file, &cfg, 701, probe_opts);
    let rows = clean.routed_rows;
    assert!(
        rows > 20,
        "fixture must route enough traffic to kill into: {clean:?}"
    );
    let mut opts = DistOptions::new(worker_bin());
    opts.workers = 4;
    opts.chaos = DistChaos {
        kill_at_rows: vec![rows / 10, rows / 4, rows / 2],
        ..DistChaos::default()
    };
    let (t, dist) = dist_run(&model, &file, &cfg, 701, opts);
    assert_chaos_traces_match(&t, &reference, "mlp16 kill-chaos workers 4");
    assert!(
        dist.lease_expiries >= 1,
        "at least one scheduled kill must fire: {dist:?}"
    );
    assert!(
        dist.respawns >= 1,
        "killed workers must be respawned: {dist:?}"
    );
    assert_eq!(dist.fell_back, None, "budget was not exhausted: {dist:?}");
}

/// A worker whose heartbeats stop mid-run is declared dead at the
/// deadline; its leased item is reassigned and the run completes
/// byte-identically.
#[test]
fn stalled_heartbeat_expires_the_lease_and_reassigns() {
    let model = mlp16_victim();
    let cfg = AttackConfig::fast();
    let file = ModelFile::save(&model);
    let reference = sequential_run(&model, &cfg, 703);
    let mut opts = DistOptions::new(worker_bin());
    opts.workers = 2;
    opts.heartbeat = Duration::from_millis(400);
    opts.chaos = DistChaos {
        stall_after_items: Some((0, 1)),
        ..DistChaos::default()
    };
    let (t, dist) = dist_run(&model, &file, &cfg, 703, opts);
    assert_traces_match(&t, &reference, "mlp16 stalled-heartbeat workers 2");
    assert!(
        dist.lease_expiries >= 1,
        "the stalled worker must expire its lease: {dist:?}"
    );
    assert_eq!(dist.fell_back, None, "budget was not exhausted: {dist:?}");
}

/// A worker that writes a truncated frame and exits is indistinguishable
/// from wire corruption: the lease expires and the item is recomputed.
#[test]
fn truncated_frames_expire_the_lease() {
    let model = mlp16_victim();
    let cfg = AttackConfig::fast();
    let file = ModelFile::save(&model);
    let reference = sequential_run(&model, &cfg, 702);
    let mut opts = DistOptions::new(worker_bin());
    opts.workers = 2;
    opts.chaos = DistChaos {
        truncate_after_items: Some((1, 0)),
        ..DistChaos::default()
    };
    let (t, dist) = dist_run(&model, &file, &cfg, 702, opts);
    assert_traces_match(&t, &reference, "mlp16 truncated-frame workers 2");
    assert!(
        dist.lease_expiries >= 1,
        "the truncating worker must expire its lease: {dist:?}"
    );
    assert_eq!(dist.fell_back, None, "budget was not exhausted: {dist:?}");
}

/// With a zero respawn budget, the first worker death opens the circuit
/// breaker: the run *falls back* to in-process execution — never a panic —
/// and still recovers the exact key with the exact query count.
#[test]
fn exhausted_respawn_budget_falls_back_in_process() {
    let model = mlp16_victim();
    let cfg = AttackConfig::fast();
    let file = ModelFile::save(&model);
    let reference = sequential_run(&model, &cfg, 701);
    let mut opts = DistOptions::new(worker_bin());
    opts.workers = 2;
    opts.heartbeat = Duration::from_millis(400);
    opts.respawn_budget = 0;
    opts.chaos = DistChaos {
        stall_after_items: Some((0, 0)),
        ..DistChaos::default()
    };
    let (t, dist) = dist_run(&model, &file, &cfg, 701, opts);
    assert_traces_match(&t, &reference, "mlp16 breaker workers 2");
    assert!(
        dist.fell_back.is_some(),
        "the breaker must have opened: {dist:?}"
    );
    assert_eq!(dist.respawns, 0, "budget 0 permits no respawns: {dist:?}");
}

/// Kill-and-resume across RLCP cuts: the *coordinator* process dies (a
/// `ChaosOracle` panic standing in for SIGKILL) at scheduled points, and
/// each post-crash segment resumes from the last wave-aligned checkpoint
/// with a fresh broker AND a fresh coordinator + worker fleet. The final
/// key must match the uninterrupted sequential run exactly.
#[test]
fn kill_and_resume_across_rlcp_cuts_never_loses_the_key() {
    let model = mlp16_victim();
    let cfg = AttackConfig::fast();
    let file = ModelFile::save(&model);
    let reference = sequential_run(&model, &cfg, 701);
    let q = reference.report.queries;
    let crash_at: Vec<u64> = (1..=4).map(|i| i * q / 5).collect();
    let scheduled = crash_at.len();
    let chaos = ChaosOracle::new(
        CountingOracle::new(&model),
        ChaosConfig::crash_only(9, crash_at),
    );
    let dec = Decryptor::new(cfg);
    let sink = RecordingSink::default();
    let mut crashes = 0usize;
    let mut resumed_segments = 0usize;
    let report = loop {
        assert!(
            crashes <= scheduled,
            "more unwinds than scheduled crash points"
        );
        let mut opts = DistOptions::new(worker_bin());
        opts.workers = 2;
        let coord = DistCoordinator::new(&file.path, opts).expect("bind coordinator socket");
        let broker = Broker::with_config(&chaos, BrokerConfig::default());
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Prng::seed_from_u64(701);
            dec.resume_with(
                model.white_box(),
                &broker,
                &mut rng,
                &sink,
                CheckpointPolicy::EVERY_CUT,
                &coord,
            )
        }));
        match attempt {
            Ok(Ok((report, status))) => {
                if crashes > 0 {
                    assert!(
                        status.resumed(),
                        "post-crash segments must resume from a checkpoint, got {status:?}"
                    );
                }
                break report;
            }
            Ok(Err(e)) => panic!("attack error during dist soak: {e}"),
            Err(payload) => {
                payload
                    .downcast::<ChaosCrash>()
                    .expect("only scheduled chaos crashes should unwind");
                crashes += 1;
                resumed_segments += 1;
            }
        }
    };
    assert!(crashes > 0, "the soak must actually crash");
    assert!(resumed_segments > 0, "the soak must actually resume");
    assert_eq!(
        report.key, reference.report.key,
        "kill-and-resume across RLCP cuts lost the key"
    );
    assert_eq!(
        report.fidelity(model.true_key()),
        1.0,
        "resumed distributed run must recover the key exactly"
    );
}
