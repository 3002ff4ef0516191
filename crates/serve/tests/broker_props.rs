//! Broker transparency properties: a broker must be observationally
//! equivalent to the bare oracle (bit-identical logits) while never issuing
//! more underlying queries than an uncached client would.

use relock_locking::{CountingOracle, LockSpec, Oracle, OracleError};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosOracle, RetryPolicy};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

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

/// Randomized workloads with repeats: brokered responses are bit-identical
/// to the bare oracle's, and the broker never issues more underlying
/// queries than the uncached client.
#[test]
fn broker_is_observationally_equivalent_and_never_wasteful() {
    for case in 0..12u64 {
        let reference = locked_oracle(60 + case);
        let backend = locked_oracle(60 + case);
        let broker = Broker::new(&backend);
        let mut rng = Prng::seed_from_u64(600 + case);
        let mut uncached_rows = 0u64;
        // A workload mixing fresh batches, exact repeats, and single rows.
        let mut history: Vec<Tensor> = Vec::new();
        for step in 0..20 {
            let x = if !history.is_empty() && rng.flip() {
                history[rng.below(history.len())].clone()
            } else {
                let rows = 1 + rng.below(6);
                rng.normal_tensor([rows, 6])
            };
            uncached_rows += x.dims()[0] as u64;
            let expect = reference.query_batch(&x);
            let got = broker.query_batch(&x);
            assert_eq!(
                expect.as_slice(),
                got.as_slice(),
                "case {case} step {step}: brokered logits must be bit-identical"
            );
            history.push(x);
        }
        assert!(
            broker.query_count() <= uncached_rows,
            "case {case}: broker issued {} underlying queries for {} uncached rows",
            broker.query_count(),
            uncached_rows
        );
        assert_eq!(backend.query_count(), broker.query_count());
        let snap = broker.snapshot();
        assert_eq!(snap.requested, uncached_rows);
        assert_eq!(snap.underlying + snap.cache_hits, snap.requested);
    }
}

/// Budget exhaustion is a typed error, charges nothing, and cached rows
/// keep answering afterwards.
#[test]
fn exhausted_budget_is_typed_and_cache_survives() {
    let backend = locked_oracle(71);
    let broker = Broker::with_config(
        &backend,
        BrokerConfig {
            max_queries: Some(5),
            ..BrokerConfig::default()
        },
    );
    let mut rng = Prng::seed_from_u64(710);
    let warm = rng.normal_tensor([5, 6]);
    broker.try_query_batch(&warm).unwrap();
    let err = broker
        .try_query_batch(&rng.normal_tensor([2, 6]))
        .unwrap_err();
    assert_eq!(
        err,
        OracleError::BudgetExhausted {
            spent: 5,
            budget: 5,
            requested: 2
        }
    );
    assert_eq!(backend.query_count(), 5, "refused batch reached no backend");
    // Cache hits are free: the warm batch still answers with zero budget.
    let again = broker.try_query_batch(&warm).unwrap();
    assert_eq!(again.dims(), [5, 4]);
    assert_eq!(broker.remaining_budget(), Some(0));
}

/// Retries mask a flaky transport: with enough attempts the broker yields
/// bit-exact answers and records the retry count.
#[test]
fn retries_mask_flaky_transport() {
    let reference = locked_oracle(72);
    let flaky = ChaosOracle::new(
        locked_oracle(72),
        ChaosConfig {
            seed: 720,
            transient_rate: 0.4,
            ..ChaosConfig::default()
        },
    );
    let broker = Broker::with_config(
        &flaky,
        BrokerConfig {
            retry: RetryPolicy {
                max_attempts: 50,
                base_backoff: std::time::Duration::ZERO,
                multiplier: 1,
                ..RetryPolicy::default()
            },
            ..BrokerConfig::default()
        },
    );
    let mut rng = Prng::seed_from_u64(721);
    for _ in 0..10 {
        let x = rng.normal_tensor([3, 6]);
        let expect = reference.query_batch(&x);
        let got = broker.try_query_batch(&x).expect("retries should recover");
        assert_eq!(expect.as_slice(), got.as_slice());
    }
    assert!(
        broker.snapshot().retries > 0,
        "a 40% failure rate over 10 batches should have triggered retries"
    );
}
