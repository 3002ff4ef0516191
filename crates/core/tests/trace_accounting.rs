//! Two sets of books, one truth: the broker's `QueryStatsSnapshot` and
//! the flight-recorder's counter totals are written by the same code
//! paths and must agree exactly — including under fault-injected retries,
//! where a double-count would be easiest to introduce (a retried batch
//! must be counted once in both books, not once per attempt).

use relock_attack::{AttackConfig, Decryptor};
use relock_locking::{CountingOracle, LockSpec, LockedModel, Oracle};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{
    Broker, BrokerConfig, ChaosConfig, ChaosOracle, QueryStatsSnapshot, RetryPolicy,
};
use relock_tensor::rng::Prng;
use relock_trace::{FlightRecorder, Trace};
use std::sync::Arc;
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

/// Asserts every global trace total equals the corresponding snapshot
/// field, and that the per-scope trace books sum to those globals. The
/// capture is read back through its JSONL, as `report --analyze` reads it.
fn assert_books_agree(flight: &FlightRecorder, snap: &QueryStatsSnapshot, ctx: &str) {
    let flight = Trace::parse(&flight.to_jsonl()).expect("captured JSONL parses");
    assert!(
        snap.is_balanced(),
        "{ctx}: requested must equal cache_hits + underlying: {snap:?}"
    );
    assert_eq!(
        flight.counter_total("broker.requested"),
        snap.requested,
        "{ctx}: requested totals disagree"
    );
    assert_eq!(
        flight.counter_total("broker.cache_hits"),
        snap.cache_hits,
        "{ctx}: cache-hit totals disagree"
    );
    assert_eq!(
        flight.counter_total("broker.underlying"),
        snap.underlying,
        "{ctx}: underlying totals disagree"
    );
    assert_eq!(
        flight.counter_total("broker.retry"),
        snap.retries,
        "{ctx}: retry totals disagree"
    );
    assert_eq!(
        flight.counter_total("chaos.injected"),
        snap.injected_faults,
        "{ctx}: injected-fault totals disagree"
    );

    // The per-scope trace books must also match the snapshot's per-scope
    // table — counters carry the scope they were recorded under.
    let totals = flight.counter_totals();
    for (scope, counts) in &snap.per_scope {
        let of = |label: &str| {
            totals
                .get(&(label.to_string(), Some(scope.clone())))
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(
            of("broker.requested"),
            counts.requested,
            "{ctx}: scope '{scope}' requested disagrees"
        );
        assert_eq!(
            of("broker.cache_hits"),
            counts.cache_hits,
            "{ctx}: scope '{scope}' cache hits disagree"
        );
        assert_eq!(
            of("broker.underlying"),
            counts.underlying,
            "{ctx}: scope '{scope}' underlying disagrees"
        );
    }
}

/// Sequential transient-fault soak (10% drop rate, retries absorb every
/// fault): the books must agree and retries must be counted once each —
/// `retries == injected_faults` in *both* ledgers.
#[test]
fn trace_and_snapshot_books_agree_under_transient_chaos() {
    let model = mlp_victim();
    let chaos = ChaosOracle::new(
        CountingOracle::new(&model),
        ChaosConfig {
            seed: 13,
            transient_rate: 0.10,
            ..ChaosConfig::default()
        },
    );
    let flight = Arc::new(FlightRecorder::new());
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
    )
    .with_trace(Arc::clone(&flight));
    let report = Decryptor::new(AttackConfig::fast())
        .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(501))
        .unwrap();
    // Publish through the broker's stats, so the delta lands in both
    // ledgers.
    chaos.sync_stats(broker.stats());
    assert_eq!(report.fidelity(model.true_key()), 1.0);

    let snap = broker.snapshot();
    assert!(snap.injected_faults > 0, "10% drop rate must inject faults");
    assert_eq!(
        snap.retries, snap.injected_faults,
        "every transient error costs exactly one retry"
    );
    assert_books_agree(&flight, &snap, "sequential chaos");
}

/// The concurrency variant: 4 shard workers pile onto the broker while
/// the oracle injects faults and latency spikes. Worker interleaving must
/// not lose or double-count a row in either ledger.
#[test]
fn trace_and_snapshot_books_agree_under_parallel_chaos() {
    let model = mlp_victim();
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
    let flight = Arc::new(FlightRecorder::new());
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
    )
    .with_trace(Arc::clone(&flight));
    let cfg = AttackConfig {
        threads: 4,
        ..AttackConfig::fast()
    };
    let report = Decryptor::new(cfg)
        .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(501))
        .unwrap();
    chaos.sync_stats(broker.stats());
    assert_eq!(report.fidelity(model.true_key()), 1.0);

    let snap = broker.snapshot();
    assert!(
        snap.injected_faults > 0,
        "fault schedule must actually fire"
    );
    assert_eq!(
        snap.underlying,
        chaos.query_count(),
        "broker's underlying total must agree with the oracle's row counter"
    );
    assert_books_agree(&flight, &snap, "parallel chaos");
}

/// A clean (fault-free) run agrees too, with zero retry/fault counters in
/// both books — the cross-check is not only about the chaos path.
#[test]
fn trace_and_snapshot_books_agree_on_a_clean_run() {
    let model = mlp_victim();
    let oracle = CountingOracle::new(&model);
    let flight = Arc::new(FlightRecorder::new());
    let broker =
        Broker::with_config(&oracle, BrokerConfig::default()).with_trace(Arc::clone(&flight));
    let report = Decryptor::new(AttackConfig::fast())
        .run_brokered(model.white_box(), &broker, &mut Prng::seed_from_u64(501))
        .unwrap();
    assert_eq!(report.fidelity(model.true_key()), 1.0);
    let snap = broker.snapshot();
    assert_eq!(snap.retries, 0);
    assert_eq!(snap.injected_faults, 0);
    let trace = Trace::parse(&flight.to_jsonl()).expect("captured JSONL parses");
    assert_eq!(trace.counter_total("broker.retry"), 0);
    assert_eq!(trace.counter_total("chaos.injected"), 0);
    assert_books_agree(&flight, &snap, "clean run");
}
