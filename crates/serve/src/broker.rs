//! The query broker: one front door between an attack and any [`Oracle`].
//!
//! Every request flows through four stages:
//!
//! 1. **Memoization** — each input row is looked up by its bit-exact bytes;
//!    hits are served from cache and never touch the backend (or the
//!    budget). Duplicate rows *within* one batch are deduplicated too.
//! 2. **Budgeting** — the surviving miss rows reserve query budget
//!    all-or-nothing; exhaustion surfaces as a typed [`OracleError`]
//!    instead of a panic.
//! 3. **Dispatch** — misses go to the backend as one batch on the
//!    caller's thread, retried with backoff on transient `Backend`
//!    failures.
//! 4. **Metrics** — [`QueryStats`] records requested/hit/underlying row
//!    counts (per procedure scope), batch shapes, retries, and backend
//!    latency.
//!
//! **Query accounting semantics:** cache hits are free; underlying queries
//! count per-input-row (an N-row batch costs N). `Oracle::query_count` on a
//! broker reports *underlying* rows — the paper's `#Q` metric — so a broker
//! can replace a bare [`CountingOracle`](relock_locking::CountingOracle) in
//! any harness without inflating Table 1.
//!
//! A broker built over a [`SharedCache`] may carry a [`WaitHook`] on the
//! waits inside its batches, so a caller that bounds compute with a slot
//! can give the slot back while a batch waits (the campaign hub does).
//!
//! A broker may also carry the run's [`FlightRecorder`]
//! ([`Broker::with_trace`]): its stats then record the scoped broker
//! counters, each batch a `broker.batch` span, and the attack driver finds
//! the same recorder through [`Broker::trace`].

use crate::budget::QueryBudget;
use crate::cache::{row_key_ns, MemoCache, RowKey, RowMap, SharedCache};
use crate::flight::{Claim, FlightEntry, FlightTable};
use crate::retry::RetryPolicy;
use crate::stats::{QueryStats, QueryStatsSnapshot};
use relock_locking::{Oracle, OracleError};
use relock_tensor::Tensor;
use relock_trace::FlightRecorder;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A hook on the waits inside a brokered batch, for a caller that bounds
/// concurrent compute with a slot it should not hold while it waits.
///
/// [`WaitHook::leave`] runs before each wait in a batch: before it blocks
/// on another broker's in-flight rows and before a retry backoff sleep.
/// A backend may call it too, before a latency it injects (see
/// [`ChaosOracle::with_wait_hook`](crate::ChaosOracle::with_wait_hook)).
/// It may run several times in one batch, or not at all: a batch that
/// never waits keeps its slot throughout. [`WaitHook::enter`] runs once as
/// every batch returns to its caller, with its result or its error, after
/// the batch has published its rows (cache inserts done, flight guards
/// dropped). A batch that panics unwinds without calling `enter`, so a
/// hook must treat a `leave` with no `enter` as final.
///
/// A batch calls `enter` only as it returns, never between its waits:
/// after a `leave` it finishes the rows it owns (a re-dispatch after
/// backoff included) and publishes them first. That is what keeps a slot-bounded hook
/// deadlock-free: a thread that owns in-flight rows never queues for a
/// slot, so a batch waiting on those rows waits on a thread that can
/// finish them.
pub trait WaitHook: Send + Sync + fmt::Debug {
    /// The calling thread is about to wait inside a batch.
    fn leave(&self);
    /// The calling thread's batch has published its rows and is about to
    /// return.
    fn enter(&self);
}

/// Tunables of a [`Broker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerConfig {
    /// Underlying-query budget (`None` = unlimited).
    pub max_queries: Option<u64>,
    /// Retry policy for transient backend failures.
    pub retry: RetryPolicy,
}

/// A batching, memoizing, budgeted, metered front-end over any [`Oracle`].
#[derive(Debug)]
pub struct Broker<O> {
    inner: O,
    config: BrokerConfig,
    cache: Arc<MemoCache>,
    flights: Arc<FlightTable>,
    /// Namespace word prepended to every cache key (shared caches only):
    /// two brokers share entries iff they share both the cache *and* the
    /// namespace, so a process-global table can front different models
    /// without cross-serving their outputs.
    key_ns: Option<u64>,
    budget: QueryBudget,
    stats: QueryStats,
    /// Monotone dispatch counter, used only to salt retry-backoff jitter:
    /// concurrent dispatches that fail together must not retry together.
    dispatch_seq: AtomicU64,
    /// Told about the waits in each batch (shared-cache brokers only).
    wait: Option<Arc<dyn WaitHook>>,
}

impl<O: Oracle> Broker<O> {
    /// Wraps `inner` with default configuration (no budget).
    pub fn new(inner: O) -> Self {
        Broker::with_config(inner, BrokerConfig::default())
    }

    /// Wraps `inner` with explicit configuration over a private, unbounded
    /// memo cache.
    pub fn with_config(inner: O, config: BrokerConfig) -> Self {
        Broker {
            inner,
            cache: Arc::new(MemoCache::new()),
            flights: Arc::new(FlightTable::new()),
            key_ns: None,
            budget: QueryBudget::new(config.max_queries),
            stats: QueryStats::new(),
            dispatch_seq: AtomicU64::new(0),
            wait: None,
            config,
        }
    }

    /// Wraps `inner` on top of a process-global [`SharedCache`] instead of
    /// a private one. `namespace` isolates this broker's entries from
    /// other tenants of the cache: callers fronting the *same* backend
    /// must pass the same namespace (typically a content hash of the
    /// locked model) to share hits, and callers fronting different
    /// backends must pass different namespaces. Budget, stats and retry
    /// behaviour stay per-broker. `wait`, when given, hears of
    /// every wait in a batch and of every batch's return (see
    /// [`WaitHook`]).
    pub fn with_shared_cache(
        inner: O,
        config: BrokerConfig,
        shared: &SharedCache,
        namespace: u64,
        wait: Option<Arc<dyn WaitHook>>,
    ) -> Self {
        Broker {
            inner,
            cache: Arc::clone(&shared.cache),
            flights: Arc::clone(&shared.flights),
            key_ns: Some(namespace),
            budget: QueryBudget::new(config.max_queries),
            stats: QueryStats::new(),
            dispatch_seq: AtomicU64::new(0),
            wait,
            config,
        }
    }

    /// Records this broker's traffic, and the attack it serves, into
    /// `recorder` (see the module docs). Without one nothing is recorded.
    pub fn with_trace(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.stats.trace = Some(recorder);
        self
    }

    /// The run's recorder, if [`Broker::with_trace`] attached one.
    pub fn trace(&self) -> Option<&FlightRecorder> {
        self.stats.trace.as_deref()
    }

    /// Tags subsequent traffic with a procedure label for per-scope
    /// accounting (`None` clears it).
    pub fn set_scope(&self, label: Option<&'static str>) {
        self.stats.set_scope(label);
    }

    /// Live metrics handle.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Point-in-time metrics copy, enriched with the occupancy and
    /// eviction counters of the cache this broker fronts (which may be
    /// process-global and therefore larger than this broker's own
    /// traffic).
    pub fn snapshot(&self) -> QueryStatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.cache_evictions = self.cache.evicted_rows();
        snap.cache_rows = self.cache.len() as u64;
        snap.cache_bytes = self.cache.bytes();
        snap
    }

    /// Memoized rows currently cached.
    pub fn cached_rows(&self) -> usize {
        self.cache.len()
    }

    /// Unwraps the backend oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The brokered batch query (stages 1–4 of the module docs).
    fn serve_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let started = Instant::now();
        let rows = x.dims()[0];
        let _batch_span = self.trace().map(|t| t.span("broker.batch", rows as u64));
        let cols = x.dims()[1];
        let q = self.inner.output_dim();

        // Stage 1: cache lookup, in-batch dedupe, and single-flight
        // coalescing against concurrent batches. Each round classifies the
        // still-unresolved rows as cache hits, in-batch duplicates (free,
        // like before), *owned* misses (this call claimed the row's flight
        // and will dispatch it), or *foreign* misses (another thread is
        // dispatching the same row right now — wait, then re-resolve; the
        // owner publishes to the cache before completing its flight, so a
        // successful flight turns the next round's lookup into a hit). The
        // round structure is deadlock-free because owned flights are always
        // completed (guards dropped) before any waiting happens.
        let mut resolved: Vec<Option<Box<[f64]>>> = (0..rows).map(|_| None).collect();
        let mut hits = 0u64;
        let mut underlying = 0u64;
        let mut pending: Vec<usize> = (0..rows).collect();
        let mut failure: Option<OracleError> = None;
        while !pending.is_empty() && failure.is_none() {
            let mut miss_rows: Vec<f64> = Vec::new();
            let mut miss_keys: Vec<RowKey> = Vec::new();
            let mut owned_rows: Vec<usize> = Vec::new();
            let mut dups: Vec<(usize, usize)> = Vec::new();
            let mut slot_of: RowMap<usize> = RowMap::default();
            let mut guards = Vec::new();
            let mut waiting: Vec<(usize, Arc<FlightEntry>)> = Vec::new();
            // Duplicate rows that point at this round's miss slots are only
            // *served* (and only count as hits) if the round's dispatch
            // succeeds.
            let mut round_dup_hits = 0u64;
            for &r in &pending {
                let row = &x.as_slice()[r * cols..(r + 1) * cols];
                let key = row_key_ns(self.key_ns, row);
                if let Some(hit) = self.cache.get(&key) {
                    hits += 1;
                    resolved[r] = Some(hit);
                    continue;
                }
                if let Some(&slot) = slot_of.get(&key) {
                    round_dup_hits += 1;
                    dups.push((r, slot));
                    continue;
                }
                match self.flights.claim(key.clone()) {
                    Claim::Owner(guard) => {
                        // An owner publishes before it completes its
                        // flight, so a row finished between the lookup
                        // above and this claim is cached: serve it (the
                        // guard drops, completing an empty flight).
                        if let Some(hit) = self.cache.get(&key) {
                            hits += 1;
                            resolved[r] = Some(hit);
                            continue;
                        }
                        guards.push(guard);
                        slot_of.insert(key.clone(), miss_keys.len());
                        owned_rows.push(r);
                        miss_rows.extend_from_slice(row);
                        miss_keys.push(key);
                    }
                    Claim::Waiter(entry) => waiting.push((r, entry)),
                }
            }

            // Stages 2–3: only owned unique misses are charged and
            // dispatched. On failure the guards drop (releasing waiters to
            // re-claim), any reservation the backend never answered is
            // refunded, and the rounds already served stay on the books —
            // the error is surfaced after partial accounting below.
            let misses = miss_keys.len();
            if misses > 0 {
                match self.budget.try_reserve(misses as u64) {
                    Ok(()) => match self.dispatch(&Tensor::from_vec(
                        std::mem::take(&mut miss_rows),
                        [misses, cols],
                    )) {
                        Ok(my) => {
                            for (i, key) in miss_keys.into_iter().enumerate() {
                                self.cache.insert(key, my.row(i).into());
                            }
                            underlying += misses as u64;
                            hits += round_dup_hits;
                            for (slot, &r) in owned_rows.iter().enumerate() {
                                resolved[r] = Some(my.row(slot).into());
                            }
                            for (r, slot) in dups {
                                resolved[r] = Some(my.row(slot).into());
                            }
                        }
                        Err(e) => {
                            self.budget.refund(misses as u64);
                            failure = Some(e);
                        }
                    },
                    Err(e) => failure = Some(e),
                }
            }
            drop(guards); // publish completions before waiting on anyone

            if failure.is_none() {
                if !waiting.is_empty() {
                    self.waiting();
                }
                for (_, entry) in &waiting {
                    entry.wait();
                }
                pending = waiting.into_iter().map(|(r, _)| r).collect();
            }
        }

        if let Some(e) = failure {
            // Partial accounting: rows this call *did* serve (cache hits)
            // or dispatch in earlier rounds are real traffic and must stay
            // balanced in the books; rows the failure left unserved are
            // charged to nobody.
            if hits + underlying > 0 {
                self.stats
                    .record_batch(hits + underlying, hits, underlying, started.elapsed());
            }
            return Err(e);
        }

        // Reassemble in request order.
        let mut out = Vec::with_capacity(rows * q);
        for source in &resolved {
            out.extend_from_slice(source.as_ref().expect("every row resolved"));
        }

        // Stage 4: hits = everything not sent to the backend by *this*
        // call — duplicate rows within the batch and rows dispatched by a
        // concurrent owner count as hits, exactly what a sequential
        // interleaving of the same batches would have recorded.
        self.stats
            .record_batch(rows as u64, hits, underlying, started.elapsed());
        Ok(Tensor::from_vec(out, [rows, q]))
    }

    /// Sends a miss batch to the backend under the retry policy.
    fn dispatch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let mut retries = 0u64;
        // Each dispatch salts its own jitter stream: concurrent batches
        // that hit the same transient outage back off on decorrelated
        // schedules instead of thundering back at the oracle in lockstep.
        let salt = self.dispatch_seq.fetch_add(1, Ordering::Relaxed);
        let out = self.config.retry.run_salted(
            || self.inner.try_query_batch(x),
            || {
                retries += 1;
                self.waiting();
            },
            salt,
        );
        if retries > 0 {
            self.stats.record_retries(retries);
        }
        out
    }

    /// The batch on this thread is about to wait (see [`WaitHook`]).
    fn waiting(&self) {
        if let Some(wait) = &self.wait {
            wait.leave();
        }
    }
}

impl<O: Oracle> Oracle for Broker<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.try_query_batch(x)
            .expect("brokered query failed; use try_query_batch to degrade gracefully")
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let out = self.serve_batch(x);
        if let Some(wait) = &self.wait {
            wait.enter();
        }
        out
    }

    /// Underlying query rows issued so far — the paper's `#Q`. Cache hits
    /// are not counted.
    fn query_count(&self) -> u64 {
        self.stats.underlying_queries()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.budget.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::{CountingOracle, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};
    use relock_tensor::rng::Prng;
    use std::time::Duration;

    fn oracle() -> CountingOracle {
        let mut rng = Prng::seed_from_u64(50);
        let model = build_mlp(
            &MlpSpec {
                input: 5,
                hidden: vec![7],
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .unwrap();
        CountingOracle::new(&model)
    }

    #[test]
    fn cache_hits_are_free_and_bit_exact() {
        let o = oracle();
        let broker = Broker::new(&o);
        let mut rng = Prng::seed_from_u64(51);
        let x = rng.normal_tensor([4, 5]);
        let first = broker.query_batch(&x);
        let second = broker.query_batch(&x);
        assert_eq!(first.as_slice(), second.as_slice());
        assert_eq!(o.query_count(), 4, "repeat batch served from cache");
        assert_eq!(broker.query_count(), 4);
        let snap = broker.snapshot();
        assert_eq!(snap.requested, 8);
        assert_eq!(snap.cache_hits, 4);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_batch_duplicates_are_deduplicated() {
        let o = oracle();
        let broker = Broker::new(&o);
        let mut rng = Prng::seed_from_u64(52);
        let row = rng.normal_tensor([5]);
        let mut data = Vec::new();
        for _ in 0..6 {
            data.extend_from_slice(row.as_slice());
        }
        let x = Tensor::from_vec(data, [6, 5]);
        let y = broker.query_batch(&x);
        assert_eq!(o.query_count(), 1, "six identical rows → one real query");
        for r in 1..6 {
            assert_eq!(y.row(r), y.row(0));
        }
    }

    #[test]
    fn budget_is_enforced_and_cache_still_serves() {
        let o = oracle();
        let broker = Broker::with_config(
            &o,
            BrokerConfig {
                max_queries: Some(3),
                ..BrokerConfig::default()
            },
        );
        let mut rng = Prng::seed_from_u64(53);
        let x = rng.normal_tensor([3, 5]);
        broker.try_query_batch(&x).unwrap();
        assert_eq!(broker.remaining_budget(), Some(0));
        // Fresh rows are refused...
        let err = broker
            .try_query_batch(&rng.normal_tensor([1, 5]))
            .unwrap_err();
        assert!(matches!(err, OracleError::BudgetExhausted { .. }));
        // ...but cached rows still answer: hits are free.
        broker.try_query_batch(&x).unwrap();
        assert_eq!(o.query_count(), 3);
    }

    /// A deterministic backend that stalls each dispatch long enough to
    /// force concurrent misses to overlap, and optionally fails the first
    /// few dispatches outright.
    #[derive(Debug)]
    struct SlowOracle {
        calls: std::sync::atomic::AtomicU64,
        rows: std::sync::atomic::AtomicU64,
        fail_first: u64,
        stall: Duration,
    }

    impl SlowOracle {
        fn new(stall: Duration, fail_first: u64) -> Self {
            SlowOracle {
                calls: 0.into(),
                rows: 0.into(),
                fail_first,
                stall,
            }
        }
    }

    impl relock_locking::Oracle for SlowOracle {
        fn query_batch(&self, x: &Tensor) -> Tensor {
            self.try_query_batch(x).expect("scheduled failure")
        }

        fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
            use std::sync::atomic::Ordering;
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.stall);
            if call < self.fail_first {
                return Err(OracleError::Backend {
                    message: "scheduled failure".into(),
                    attempts: 1,
                });
            }
            let rows = x.dims()[0];
            self.rows.fetch_add(rows as u64, Ordering::SeqCst);
            // Echo the first element of each row so responses are checkable.
            let out: Vec<f64> = (0..rows).map(|r| x.get2(r, 0) + 1.0).collect();
            Ok(Tensor::from_vec(out, [rows, 1]))
        }

        fn query_count(&self) -> u64 {
            self.rows.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn input_dim(&self) -> usize {
            2
        }

        fn output_dim(&self) -> usize {
            1
        }
    }

    #[test]
    fn concurrent_identical_misses_coalesce_into_one_underlying_query() {
        let o = SlowOracle::new(Duration::from_millis(20), 0);
        let broker = Broker::new(&o);
        let x = Tensor::from_vec(vec![0.5, 0.25], [1, 2]);
        let n = 8;
        std::thread::scope(|scope| {
            for _ in 0..n {
                let broker = &broker;
                let x = &x;
                scope.spawn(move || {
                    let y = broker.query_batch(x);
                    assert_eq!(y.get2(0, 0), 1.5);
                });
            }
        });
        assert_eq!(
            o.query_count(),
            1,
            "eight concurrent identical misses → one real query"
        );
        let snap = broker.snapshot();
        assert_eq!(snap.requested, n);
        assert_eq!(snap.underlying, 1);
        assert_eq!(snap.cache_hits, n - 1, "waiters account as cache hits");
        assert!(snap.is_balanced());
    }

    #[test]
    fn failed_owner_releases_waiters_who_retake_the_flight() {
        // No retries at the broker level: the first owner's dispatch fails
        // outright, its waiters must wake, re-claim, and succeed.
        let o = SlowOracle::new(Duration::from_millis(10), 1);
        let broker = Broker::with_config(
            &o,
            BrokerConfig {
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..BrokerConfig::default()
            },
        );
        let x = Tensor::from_vec(vec![2.0, 0.0], [1, 2]);
        let n = 6;
        let failures = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n {
                let broker = &broker;
                let x = &x;
                let failures = &failures;
                scope.spawn(move || match broker.try_query_batch(x) {
                    Ok(y) => assert_eq!(y.get2(0, 0), 3.0),
                    Err(OracleError::Backend { .. }) => {
                        failures.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                });
            }
        });
        assert_eq!(
            failures.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exactly the scheduled failure surfaced, to exactly one caller"
        );
        assert_eq!(o.query_count(), 1, "one successful underlying query");
        let snap = broker.snapshot();
        assert_eq!(snap.underlying, 1);
        assert!(snap.is_balanced());
    }

    /// Satellite regression: a failed dispatch must refund its budget
    /// reservation — the backend never answered, so nothing was spent.
    #[test]
    fn failed_dispatch_refunds_its_reservation() {
        let o = SlowOracle::new(Duration::from_millis(1), 1);
        let broker = Broker::with_config(
            &o,
            BrokerConfig {
                max_queries: Some(10),
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
            },
        );
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [4, 2]);
        let err = broker.try_query_batch(&x).unwrap_err();
        assert!(matches!(err, OracleError::Backend { .. }));
        // The failed call charged exactly zero queries.
        assert_eq!(broker.remaining_budget(), Some(10));
        assert_eq!(broker.query_count(), 0);
        assert_eq!(o.query_count(), 0);
        // The retry then charges exactly the four rows, no more.
        broker.try_query_batch(&x).unwrap();
        assert_eq!(broker.remaining_budget(), Some(6));
        assert_eq!(broker.query_count(), 4);
        assert!(broker.snapshot().is_balanced());
    }

    /// Satellite regression: `BudgetExhausted` mid-batch must not charge
    /// the unserved rows, and rows already served from cache stay on the
    /// books — the exact charged-query count is pinned.
    #[test]
    fn budget_exhaustion_mid_batch_charges_only_served_rows() {
        let o = oracle();
        let broker = Broker::with_config(
            &o,
            BrokerConfig {
                max_queries: Some(5),
                ..BrokerConfig::default()
            },
        );
        let mut rng = Prng::seed_from_u64(56);
        let warm = rng.normal_tensor([2, 5]);
        broker.try_query_batch(&warm).unwrap(); // 2 charged, 2 cached
        assert_eq!(broker.remaining_budget(), Some(3));

        // A batch of the 2 cached rows + 4 fresh ones: the fresh rows
        // can't fit in the remaining budget of 3, so the batch fails — but
        // the 2 cache hits were served and the 4 unserved rows cost nothing.
        let fresh = rng.normal_tensor([4, 5]);
        let mut data = warm.as_slice().to_vec();
        data.extend_from_slice(fresh.as_slice());
        let x = Tensor::from_vec(data, [6, 5]);
        let err = broker.try_query_batch(&x).unwrap_err();
        assert!(matches!(err, OracleError::BudgetExhausted { .. }));
        assert_eq!(broker.query_count(), 2, "exactly the warm-up was charged");
        assert_eq!(broker.remaining_budget(), Some(3));
        assert_eq!(o.query_count(), 2);
        let snap = broker.snapshot();
        assert_eq!(snap.requested, 4, "2 warm-up rows + 2 hits served");
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.underlying, 2);
        assert!(snap.is_balanced());
        // A batch the budget does afford still goes through afterwards.
        broker.try_query_batch(&rng.normal_tensor([3, 5])).unwrap();
        assert_eq!(broker.remaining_budget(), Some(0));
        assert_eq!(broker.query_count(), 5);
    }

    #[test]
    fn shared_cache_is_shared_between_brokers_with_one_namespace() {
        let o = oracle();
        let shared = crate::SharedCache::unbounded();
        let a = Broker::with_shared_cache(&o, BrokerConfig::default(), &shared, 7, None);
        let b = Broker::with_shared_cache(&o, BrokerConfig::default(), &shared, 7, None);
        let mut rng = Prng::seed_from_u64(57);
        let x = rng.normal_tensor([3, 5]);
        let ya = a.query_batch(&x);
        let yb = b.query_batch(&x);
        assert_eq!(ya.as_slice(), yb.as_slice());
        assert_eq!(o.query_count(), 3, "second broker served from shared cache");
        assert_eq!(b.snapshot().cache_hits, 3);
        assert_eq!(shared.cached_rows(), 3);
        assert_eq!(shared.evicted_rows(), 0);
    }

    #[test]
    fn shared_cache_namespaces_isolate_different_backends() {
        // Two backends disagreeing on the same input bytes must not serve
        // each other's entries through the shared table.
        let o1 = SlowOracle::new(Duration::ZERO, 0);
        let o2 = SlowOracle::new(Duration::ZERO, 0);
        let shared = crate::SharedCache::unbounded();
        let a = Broker::with_shared_cache(&o1, BrokerConfig::default(), &shared, 1, None);
        let b = Broker::with_shared_cache(&o2, BrokerConfig::default(), &shared, 2, None);
        let x = Tensor::from_vec(vec![0.5, 0.25], [1, 2]);
        a.query_batch(&x);
        b.query_batch(&x);
        assert_eq!(o1.query_count(), 1);
        assert_eq!(
            o2.query_count(),
            1,
            "namespace 2 missed namespace 1's entry"
        );
        assert_eq!(shared.cached_rows(), 2);
        assert_eq!(b.snapshot().cache_hits, 0);
    }

    /// The order of hook calls and backend dispatches, as one log.
    #[derive(Debug, Default)]
    struct EventLog(std::sync::Mutex<Vec<&'static str>>);

    impl EventLog {
        fn push(&self, event: &'static str) {
            self.0.lock().unwrap().push(event);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl WaitHook for EventLog {
        fn leave(&self) {
            self.push("leave");
        }

        fn enter(&self) {
            self.push("enter");
        }
    }

    /// Logs each dispatch. A batch whose first row starts with a negative
    /// value panics, like a scheduled chaos crash; one starting with 9
    /// fails once, transiently; one starting with 7 stalls until some
    /// batch has started to wait (for at most 5 s).
    #[derive(Debug)]
    struct LoggedOracle {
        log: Arc<EventLog>,
        failed: std::sync::atomic::AtomicBool,
    }

    impl relock_locking::Oracle for LoggedOracle {
        fn query_batch(&self, x: &Tensor) -> Tensor {
            self.try_query_batch(x).expect("transient fault")
        }

        fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
            self.log.push("dispatch");
            let first = x.get2(0, 0);
            assert!(first >= 0.0, "injected crash");
            if first == 9.0 && !self.failed.swap(true, Ordering::SeqCst) {
                return Err(OracleError::Backend {
                    message: "injected fault".into(),
                    attempts: 1,
                });
            }
            if first == 7.0 {
                let deadline = Instant::now() + Duration::from_secs(5);
                while !self.log.0.lock().unwrap().contains(&"leave") && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            Ok(Tensor::from_vec(vec![1.0; x.dims()[0]], [x.dims()[0], 1]))
        }

        fn query_count(&self) -> u64 {
            0
        }

        fn input_dim(&self) -> usize {
            2
        }

        fn output_dim(&self) -> usize {
            1
        }
    }

    #[test]
    fn wait_hook_hears_each_wait_and_each_return_and_a_panic_skips_enter() {
        let log = Arc::new(EventLog::default());
        let backend = LoggedOracle {
            log: Arc::clone(&log),
            failed: false.into(),
        };
        let shared = crate::SharedCache::unbounded();
        let config = BrokerConfig {
            max_queries: Some(4),
            ..BrokerConfig::default()
        };
        let broker = Broker::with_shared_cache(&backend, config, &shared, 3, Some(log.clone()));
        let x = Tensor::from_vec(vec![0.5, 0.25], [1, 2]);
        broker.query_batch(&x);
        assert_eq!(
            log.take(),
            ["dispatch", "enter"],
            "a batch that never waits never leaves"
        );
        broker.query_batch(&x);
        assert_eq!(log.take(), ["enter"], "a cache hit returns through enter");
        let flaky = Tensor::from_vec(vec![9.0, 0.0], [1, 2]);
        broker.query_batch(&flaky);
        assert_eq!(
            log.take(),
            ["dispatch", "leave", "dispatch", "enter"],
            "a retry backoff is a wait, and the re-dispatch follows it"
        );
        let stalled = Tensor::from_vec(vec![7.0, 0.0], [1, 2]);
        std::thread::scope(|scope| {
            let owner = scope.spawn(|| broker.query_batch(&stalled));
            while !log.0.lock().unwrap().contains(&"dispatch") {
                std::thread::yield_now();
            }
            // The owner is dispatching the row: this batch waits on it.
            broker.query_batch(&stalled);
            owner.join().unwrap();
        });
        assert_eq!(
            log.take(),
            ["dispatch", "leave", "enter", "enter"],
            "waiting on another batch's in-flight row is a wait"
        );
        let over_budget = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0], [2, 2]);
        assert!(matches!(
            broker.try_query_batch(&over_budget),
            Err(OracleError::BudgetExhausted { .. })
        ));
        assert_eq!(log.take(), ["enter"], "an error returns through enter");
        let crashing = Tensor::from_vec(vec![-1.0, 0.0], [1, 2]);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            broker.query_batch(&crashing)
        }));
        assert!(crashed.is_err());
        assert_eq!(log.take(), ["dispatch"], "a panic never re-enters");
        // Brokers without a hook are untouched by it.
        Broker::new(&backend).query_batch(&x);
        assert_eq!(log.take(), ["dispatch"]);
    }

    #[test]
    fn snapshot_surfaces_eviction_counters() {
        let o = oracle();
        // A cap far below the traffic forces evictions.
        let shared = crate::SharedCache::bounded(1024);
        let broker = Broker::with_shared_cache(&o, BrokerConfig::default(), &shared, 9, None);
        let mut rng = Prng::seed_from_u64(58);
        for _ in 0..8 {
            broker.query_batch(&rng.normal_tensor([8, 5]));
        }
        let snap = broker.snapshot();
        assert!(snap.cache_evictions > 0, "1 KiB cap must evict");
        assert!(snap.cache_rows > 0);
        assert!(snap.cache_bytes > 0);
        // With a sub-entry-size per-shard cap each shard retains exactly
        // its newest entry (self-eviction is forbidden).
        assert!(snap.cache_rows <= 16);
        assert!(snap.is_balanced());
    }

    #[test]
    fn single_query_round_trips_through_the_batch_path() {
        let o = oracle();
        let broker = Broker::new(&o);
        let mut rng = Prng::seed_from_u64(55);
        let x = rng.normal_tensor([5]);
        let direct = o.query(&x);
        let brokered = broker.query(&x);
        assert_eq!(direct.as_slice(), brokered.as_slice());
    }
}
