//! End-to-end integration tests: the full pipeline from locking through
//! training to exact key extraction, across architectures.

use relock::prelude::*;

/// The headline claim, end to end on a *trained* victim: HPNN's key is
/// recovered exactly from I/O access plus the white box.
#[test]
fn trained_mlp_key_is_recovered_exactly() {
    let mut rng = Prng::seed_from_u64(9001);
    let task = mnist_like(&mut rng, 300, 100, 24);
    let spec = MlpSpec {
        input: 24,
        hidden: vec![16, 10],
        classes: 10,
    };
    let mut model = build_mlp(&spec, LockSpec::evenly(10), &mut rng).expect("spec fits");
    Trainer::quick().fit(&mut model, &task, &mut rng);

    let oracle = CountingOracle::new(&model);
    let report = Decryptor::new(AttackConfig::fast())
        .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(9002))
        .expect("attack completes");
    assert_eq!(report.fidelity(model.true_key()), 1.0);
    assert!(
        report.queries > 0,
        "a real I/O attack must query the oracle"
    );
    assert!(report.fully_validated());
}

/// An untrained victim is an equally valid target — the attack never uses
/// the data distribution (paper §2.3's adversary needs no training data).
#[test]
fn untrained_victim_needs_no_training_data() {
    let mut rng = Prng::seed_from_u64(9100);
    let spec = MlpSpec {
        input: 20,
        hidden: vec![14, 8],
        classes: 5,
    };
    let model = build_mlp(&spec, LockSpec::evenly(8), &mut rng).expect("spec fits");
    let oracle = CountingOracle::new(&model);
    let report = Decryptor::new(AttackConfig::fast())
        .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(9101))
        .expect("attack completes");
    assert_eq!(report.fidelity(model.true_key()), 1.0);
}

/// A trained LeNet with channel-locked convolutions decrypts exactly: the
/// expansive conv layers route through the learning + validation +
/// correction path.
#[test]
fn trained_lenet_with_channel_locks_decrypts() {
    let mut rng = Prng::seed_from_u64(9200);
    let task = cifar_like(&mut rng, 250, 80, 1, 12, 12);
    let spec = LenetSpec {
        in_channels: 1,
        h: 12,
        w: 12,
        c1: 4,
        c2: 6,
        fc1: 16,
        fc2: 12,
        classes: 10,
    };
    let mut model = build_lenet(&spec, LockSpec::evenly(8), &mut rng).expect("spec fits");
    Trainer::quick().fit(&mut model, &task, &mut rng);

    let oracle = CountingOracle::new(&model);
    let mut cfg = AttackConfig::fast();
    cfg.continue_on_failure = true;
    let report = Decryptor::new(cfg)
        .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(9201))
        .expect("attack completes");
    assert!(
        report.fidelity(model.true_key()) >= 0.99,
        "fidelity {} on LeNet",
        report.fidelity(model.true_key())
    );
}

/// The extracted key restores the victim's accuracy (the IP-piracy column
/// of Table 1): extracted-key accuracy equals true-key accuracy.
#[test]
fn extracted_key_restores_accuracy() {
    let mut rng = Prng::seed_from_u64(9300);
    let task = mnist_like(&mut rng, 300, 120, 20);
    let spec = MlpSpec {
        input: 20,
        hidden: vec![16, 8],
        classes: 10,
    };
    let mut model = build_mlp(&spec, LockSpec::evenly(12), &mut rng).expect("spec fits");
    Trainer::quick().fit(&mut model, &task, &mut rng);
    let true_acc = model.accuracy(task.test.inputs(), task.test.labels());

    let oracle = CountingOracle::new(&model);
    let report = Decryptor::new(AttackConfig::fast())
        .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(9301))
        .expect("attack completes");
    let stolen_acc = model.accuracy_with(task.test.inputs(), task.test.labels(), &report.key);
    assert!(
        (stolen_acc - true_acc).abs() < 1e-12,
        "stolen {stolen_acc} vs true {true_acc}"
    );
}

/// The decryption attack beats the monolithic baseline on an expansive
/// victim — the paper's central comparison.
#[test]
fn decryption_beats_monolithic_on_expansive_victim() {
    let mut rng = Prng::seed_from_u64(9400);
    let task = mnist_like(&mut rng, 250, 80, 10);
    // Expansive first layer: 10 → 20.
    let spec = MlpSpec {
        input: 10,
        hidden: vec![20, 12],
        classes: 10,
    };
    let mut model = build_mlp(&spec, LockSpec::evenly(16), &mut rng).expect("spec fits");
    Trainer::quick().fit(&mut model, &task, &mut rng);

    let mono_oracle = CountingOracle::new(&model);
    let mono_cfg = LearningConfig {
        samples: 150,
        epochs: 40,
        patience: 8,
        ..Default::default()
    };
    let mono = MonolithicAttack::new(mono_cfg).run(
        model.white_box(),
        &mono_oracle,
        &mut Prng::seed_from_u64(9401),
    );

    let dec_oracle = CountingOracle::new(&model);
    let mut cfg = AttackConfig::fast();
    cfg.continue_on_failure = true;
    let dec = Decryptor::new(cfg)
        .run(
            model.white_box(),
            &dec_oracle,
            &mut Prng::seed_from_u64(9402),
        )
        .expect("attack completes");

    let mono_fid = mono.key.fidelity(model.true_key());
    let dec_fid = dec.fidelity(model.true_key());
    assert!(
        dec_fid >= mono_fid,
        "decryption ({dec_fid}) must not lose to monolithic ({mono_fid})"
    );
    assert_eq!(dec_fid, 1.0, "decryption should reach exact recovery");
}

/// The Figure 3 telemetry is populated and consistent.
#[test]
fn timing_breakdown_covers_the_run() {
    let mut rng = Prng::seed_from_u64(9500);
    let spec = MlpSpec {
        input: 12,
        hidden: vec![8, 6],
        classes: 3,
    };
    let model = build_mlp(&spec, LockSpec::evenly(6), &mut rng).expect("spec fits");
    let oracle = CountingOracle::new(&model);
    let report = Decryptor::new(AttackConfig::fast())
        .run(model.white_box(), &oracle, &mut Prng::seed_from_u64(9501))
        .expect("attack completes");
    let total: f64 = Procedure::ALL
        .iter()
        .map(|&p| report.timing.fraction(p))
        .sum();
    assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    assert!(report.timing.total().as_nanos() > 0);
}
