//! Determinism regression tests for the fault-injection stack: a
//! `ChaosOracle` seeded identically must drop the *same* requests in
//! the same order, and a broker retrying through it must therefore pay the
//! same number of retries. The checkpoint/resume machinery in
//! `relock-attack` leans on exactly this property — a resumed segment can
//! only be bit-identical when the fault sequence replays.

use relock_locking::{CountingOracle, LockSpec, Oracle};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosOracle, RetryPolicy};
use relock_tensor::rng::Prng;
use std::time::Duration;

fn locked_oracle(seed: u64) -> CountingOracle {
    let mut rng = Prng::seed_from_u64(seed);
    let model = build_mlp(
        &MlpSpec {
            input: 6,
            hidden: vec![9],
            classes: 4,
        },
        LockSpec::evenly(5),
        &mut rng,
    )
    .unwrap();
    CountingOracle::new(&model)
}

/// A backend that fails a seeded `rate` of its calls with a transient
/// error.
fn flaky(backend: CountingOracle, rate: f64, seed: u64) -> ChaosOracle<CountingOracle> {
    ChaosOracle::new(
        backend,
        ChaosConfig {
            seed,
            transient_rate: rate,
            ..ChaosConfig::default()
        },
    )
}

/// An instant-retry policy so the test never sleeps.
fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
        multiplier: 1,
        ..RetryPolicy::default()
    }
}

#[test]
fn transient_fault_sequence_is_seed_deterministic() {
    let run = |seed: u64| -> Vec<bool> {
        let oracle = flaky(locked_oracle(90), 0.4, seed);
        let mut rng = Prng::seed_from_u64(91);
        (0..64)
            .map(|_| oracle.try_query_batch(&rng.normal_tensor([1, 6])).is_ok())
            .collect()
    };
    let a = run(17);
    let b = run(17);
    assert_eq!(a, b, "same seed must replay the same drop pattern");
    assert!(a.iter().any(|&ok| ok) && a.iter().any(|&ok| !ok));

    let c = run(18);
    assert_ne!(a, c, "different seeds should not share a drop pattern");
}

#[test]
fn brokered_retries_are_seed_deterministic() {
    let run = |seed: u64| -> (u64, u64, Vec<f64>) {
        let oracle = flaky(locked_oracle(92), 0.3, seed);
        let broker = Broker::with_config(
            &oracle,
            BrokerConfig {
                retry: fast_retry(16),
                ..BrokerConfig::default()
            },
        );
        let mut rng = Prng::seed_from_u64(93);
        let mut outputs = Vec::new();
        for _ in 0..32 {
            let y = broker.query_batch(&rng.normal_tensor([1, 6]));
            outputs.extend_from_slice(y.as_slice());
        }
        let snap = broker.snapshot();
        (snap.retries, snap.underlying, outputs)
    };
    let (retries_a, underlying_a, out_a) = run(23);
    let (retries_b, underlying_b, out_b) = run(23);
    assert_eq!(retries_a, retries_b, "retry count must be seed-stable");
    assert_eq!(underlying_a, underlying_b);
    assert_eq!(out_a, out_b, "responses must be bit-identical");
    assert!(
        retries_a > 0,
        "a 30% drop rate over 32 queries should retry"
    );
}

#[test]
fn retry_policy_never_changes_successful_responses() {
    // Retries only resubmit; they must not perturb the values returned.
    let clean = locked_oracle(94);
    let oracle = flaky(locked_oracle(94), 0.35, 5);
    let broker = Broker::with_config(
        &oracle,
        BrokerConfig {
            retry: fast_retry(32),
            ..BrokerConfig::default()
        },
    );
    let mut rng = Prng::seed_from_u64(95);
    for _ in 0..16 {
        let x = rng.normal_tensor([2, 6]);
        let expect = clean.query_batch(&x);
        let got = broker.query_batch(&x);
        assert_eq!(expect.as_slice(), got.as_slice());
    }
}
