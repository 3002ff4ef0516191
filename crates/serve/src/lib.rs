//! # relock-serve — the oracle query broker
//!
//! A serving layer between an attack and any [`relock_locking::Oracle`]:
//! the attack talks to a [`Broker`], the broker talks to the hardware.
//! Four concerns live here, factored out of the attack code:
//!
//! - **Batching** ([`Broker`]) — a batch's uncached rows go to the backend
//!   as one call, deduplicated within the batch and coalesced with
//!   concurrent batches' identical rows;
//! - **Memoization** ([`Broker`], [`SharedCache`]) — responses are cached
//!   by the *bit-exact* bytes of the input row, so re-probing a validation
//!   witness is free;
//! - **Budgets** ([`QueryBudget`]) — an underlying-query limit with a typed
//!   [`relock_locking::OracleError`] failure the attack degrades on, plus
//!   [`RetryPolicy`] backoff for flaky transports;
//! - **Metrics** ([`QueryStats`]) — per-procedure query accounting, cache
//!   hit rate, batch-size histogram, backend latency, mirrored into the
//!   run's flight recorder when the broker carries one
//!   ([`Broker::with_trace`]).
//!
//! ## Query accounting semantics
//!
//! Cache hits are **free**: they never reach the backend, never reserve
//! budget, and never increment `query_count`. Underlying queries count
//! **per input row** — an N-row batch costs exactly N. `query_count()` on
//! a broker reports underlying rows, i.e. the paper's `#Q` column.
//!
//! ```
//! use relock_serve::{Broker, BrokerConfig};
//! use relock_locking::Oracle;
//! # use relock_locking::{CountingOracle, LockSpec};
//! # use relock_nn::{build_mlp, MlpSpec};
//! # use relock_tensor::rng::Prng;
//! # let mut rng = Prng::seed_from_u64(7);
//! # let model = build_mlp(
//! #     &MlpSpec { input: 4, hidden: vec![6], classes: 3 },
//! #     LockSpec::evenly(2),
//! #     &mut rng,
//! # ).unwrap();
//! let oracle = CountingOracle::new(&model);
//! let broker = Broker::with_config(&oracle, BrokerConfig {
//!     max_queries: Some(1_000),
//!     ..BrokerConfig::default()
//! });
//! let x = rng.normal_tensor([8, 4]);
//! let y = broker.query_batch(&x);     // 8 underlying queries
//! let y2 = broker.query_batch(&x);    // 0 — served from cache
//! assert_eq!(y.as_slice(), y2.as_slice());
//! assert_eq!(broker.query_count(), 8);
//! assert_eq!(broker.remaining_budget(), Some(992));
//! ```

mod broker;
mod budget;
mod cache;
mod chaos;
mod flight;
mod retry;
mod stats;

pub use broker::{Broker, BrokerConfig, WaitHook};
pub use budget::QueryBudget;
pub use cache::SharedCache;
pub use chaos::{ChaosConfig, ChaosCounters, ChaosCrash, ChaosOracle, Corruption};
pub use retry::RetryPolicy;
pub use stats::{
    bucket_label, bucket_of, QueryStats, QueryStatsSnapshot, ScopeCounts, HISTOGRAM_BUCKETS,
};
