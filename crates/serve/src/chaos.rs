//! Deterministic fault injection for soak-testing attacks.
//!
//! A multi-hour oracle-bound attack has to survive flaky links, slow
//! backends, and outright process death. [`ChaosOracle`]
//! wraps any [`Oracle`] and injects exactly those faults on a *seeded,
//! reproducible schedule*, so a soak test can kill an attack at query
//! 1 000, resume it from a checkpoint, and still assert bit-identical
//! results — the schedule is a pure function of the seed and the call
//! sequence, never of wall clock or OS scheduling.
//!
//! Three fault kinds, all driven by one [`ChaosConfig`]:
//!
//! - **Transient errors** — a call fails with [`OracleError::Backend`]
//!   (the broker's retry policy is expected to absorb these);
//! - **Latency spikes** — a call sleeps before answering (after the
//!   backend has computed its answer, so a caller that bounds compute with
//!   a slot can give the slot back across the sleep alone:
//!   [`ChaosOracle::with_wait_hook`]);
//! - **Crash-at-query-N** — when cumulative underlying rows reach a
//!   scheduled point the oracle panics with a [`ChaosCrash`] payload,
//!   simulating process death mid-flight. Soak harnesses catch the unwind
//!   (`std::panic::catch_unwind`) and resume from the last checkpoint.
//!
//! Injected-fault counts are tracked per kind ([`ChaosCounters`]) and can
//! be published into a broker's [`QueryStats`] with
//! [`ChaosOracle::sync_stats`], so attack reports show scheduled damage
//! next to organic retries.

use crate::broker::WaitHook;
use crate::stats::QueryStats;
use relock_locking::{Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tunables of the fault schedule. All rates are per `try_query_batch`
/// call and must be finite probabilities in `[0, 1]`; `transient_rate`
/// must stay below 1 so the infallible surface terminates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the schedule; same seed ⇒ same fault sequence.
    pub seed: u64,
    /// Probability a call fails with a transient [`OracleError::Backend`].
    pub transient_rate: f64,
    /// Probability a call sleeps for [`ChaosConfig::latency_spike`].
    pub latency_spike_rate: f64,
    /// Length of an injected latency spike.
    pub latency_spike: Duration,
    /// Cumulative underlying-row counts at which the oracle "crashes"
    /// (panics with [`ChaosCrash`]). Sorted and deduplicated on
    /// construction; each point fires once.
    pub crash_at: Vec<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            transient_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::from_millis(1),
            crash_at: Vec::new(),
        }
    }
}

impl ChaosConfig {
    /// A schedule that only crashes at the given cumulative row counts —
    /// the kill-and-resume soak configuration.
    pub fn crash_only(seed: u64, crash_at: Vec<u64>) -> Self {
        ChaosConfig {
            seed,
            crash_at,
            ..ChaosConfig::default()
        }
    }
}

/// Injected faults so far, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Calls failed with a transient backend error.
    pub transient_errors: u64,
    /// Calls delayed by a latency spike.
    pub latency_spikes: u64,
    /// Scheduled crashes fired.
    pub crashes: u64,
}

impl ChaosCounters {
    /// Total faults across all kinds.
    pub fn total(&self) -> u64 {
        self.transient_errors + self.latency_spikes + self.crashes
    }
}

/// Panic payload of a scheduled crash. Soak harnesses catch the unwind and
/// downcast to this to tell an injected crash from a genuine bug:
///
/// ```ignore
/// let crash = std::panic::catch_unwind(|| attack.run(...)).unwrap_err();
/// let crash = crash.downcast::<ChaosCrash>().expect("scheduled crash");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosCrash {
    /// The scheduled cumulative-row point that fired.
    pub at_rows: u64,
}

#[derive(Debug, Default)]
struct ChaosState {
    /// `try_query_batch` calls seen (indexes the per-call schedule).
    calls: u64,
    /// Cumulative underlying rows forwarded to the backend.
    rows: u64,
    /// Next entry of `crash_at` to fire.
    next_crash: usize,
    counters: ChaosCounters,
    /// Faults already published via `sync_stats`.
    published: u64,
}

/// Per-call fault decisions, resolved before any side effect.
struct CallPlan {
    transient: bool,
    spike: bool,
}

/// An [`Oracle`] wrapper that injects faults on a deterministic, seeded
/// schedule. See the module docs for the fault catalogue.
///
/// The schedule is indexed by the call sequence: call `k`'s fate is drawn
/// from a generator seeded with `seed ⊕ f(k)`, so two runs issuing the
/// same calls see the same faults, independent of timing or threads.
#[derive(Debug)]
pub struct ChaosOracle<O> {
    inner: O,
    cfg: ChaosConfig,
    state: Mutex<ChaosState>,
    /// Told before each injected latency spike.
    wait: Option<Arc<dyn WaitHook>>,
}

impl<O: Oracle> ChaosOracle<O> {
    /// Wraps `inner` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if either rate is not a finite probability in `[0, 1]`, or
    /// if `transient_rate` is 1 (the infallible surface could never
    /// answer).
    pub fn new(inner: O, mut cfg: ChaosConfig) -> Self {
        for (name, rate) in [
            ("transient_rate", cfg.transient_rate),
            ("latency_spike_rate", cfg.latency_spike_rate),
        ] {
            assert!(
                rate.is_finite() && (0.0..=1.0).contains(&rate),
                "ChaosConfig::{name} must be a probability in [0, 1], got {rate}"
            );
        }
        assert!(
            cfg.transient_rate < 1.0,
            "ChaosConfig::transient_rate must be < 1 so queries can succeed"
        );
        cfg.crash_at.sort_unstable();
        cfg.crash_at.dedup();
        ChaosOracle {
            inner,
            cfg,
            state: Mutex::new(ChaosState::default()),
            wait: None,
        }
    }

    /// Calls `hook`'s [`WaitHook::leave`] before each injected latency
    /// spike, so a caller that bounds compute with a slot can give it back
    /// while the call sleeps. The backend has answered by then; the
    /// broker's [`WaitHook::enter`] takes the slot again once the batch
    /// has published its rows.
    pub fn with_wait_hook(mut self, hook: Arc<dyn WaitHook>) -> Self {
        self.wait = Some(hook);
        self
    }

    /// Unwraps the backend oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Injected-fault counts so far.
    pub fn counters(&self) -> ChaosCounters {
        self.state.lock().expect("chaos state poisoned").counters
    }

    /// Publishes the injected-fault total into `stats` (delta since the
    /// last sync, so repeated calls never double-count). Harnesses call
    /// this before snapshotting a broker so reports carry the
    /// `injected_faults` column.
    pub fn sync_stats(&self, stats: &QueryStats) {
        let mut state = self.state.lock().expect("chaos state poisoned");
        let total = state.counters.total();
        let delta = total - state.published;
        state.published = total;
        drop(state);
        if delta > 0 {
            stats.record_injected_faults(delta);
        }
    }

    /// Draws call `k`'s fate. SplitMix-style mixing keeps neighbouring
    /// call indices statistically independent.
    fn plan(&self, k: u64) -> CallPlan {
        let mut rng =
            Prng::seed_from_u64(self.cfg.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        // Fixed draw order — the schedule must not depend on which faults
        // are enabled.
        let u_transient = rng.uniform();
        let u_spike = rng.uniform();
        CallPlan {
            transient: u_transient < self.cfg.transient_rate,
            spike: u_spike < self.cfg.latency_spike_rate,
        }
    }
}

impl<O: Oracle> Oracle for ChaosOracle<O> {
    /// The infallible surface resubmits through transient faults (like a
    /// caller blindly retrying a dropped request); crashes still apply.
    fn query_batch(&self, x: &Tensor) -> Tensor {
        loop {
            match self.try_query_batch(x) {
                Ok(y) => return y,
                Err(OracleError::Backend { .. }) => continue,
                Err(e) => panic!("chaos oracle backend failed non-transiently: {e}"),
            }
        }
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let rows = x.dims()[0] as u64;
        let mut state = self.state.lock().expect("chaos state poisoned");
        let k = state.calls;
        state.calls += 1;
        let plan = self.plan(k);
        if plan.transient {
            state.counters.transient_errors += 1;
            return Err(OracleError::Backend {
                message: format!("chaos: injected transient fault (call {k})"),
                attempts: 1,
            });
        }
        // A scheduled crash fires when this batch would reach the point:
        // the process "dies" mid-flight, before any row is answered.
        if let Some(&point) = self.cfg.crash_at.get(state.next_crash) {
            if state.rows + rows >= point {
                state.next_crash += 1;
                state.counters.crashes += 1;
                // Release the lock before unwinding so the wrapper stays
                // usable after `catch_unwind` (the soak test resumes
                // against the same chaos session).
                drop(state);
                std::panic::panic_any(ChaosCrash { at_rows: point });
            }
        }
        if plan.spike {
            state.counters.latency_spikes += 1;
        }
        state.rows += rows;
        drop(state);
        let answer = self.inner.try_query_batch(x);
        if plan.spike && !self.cfg.latency_spike.is_zero() {
            if let Some(wait) = &self.wait {
                wait.leave();
            }
            std::thread::sleep(self.cfg.latency_spike);
        }
        answer
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_graph::{GraphBuilder, KeySlot, Op, UnitLayout};
    use relock_locking::{CountingOracle, Key, LockedModel};

    fn model() -> LockedModel {
        let mut rng = Prng::seed_from_u64(600);
        let mut gb = GraphBuilder::new();
        let x = gb.input(3);
        let lin = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([4, 3]),
                    b: rng.normal_tensor([4]),
                    weight_locks: vec![],
                },
                &[x],
            )
            .unwrap();
        let keyed = gb
            .add(
                Op::KeyedSign {
                    layout: UnitLayout::scalar(4),
                    slots: vec![Some(KeySlot(0)), None, None, None],
                },
                &[lin],
            )
            .unwrap();
        let relu = gb.add(Op::Relu, &[keyed]).unwrap();
        let out = gb
            .add(
                Op::Linear {
                    w: rng.normal_tensor([2, 4]),
                    b: rng.normal_tensor([2]),
                    weight_locks: vec![],
                },
                &[relu],
            )
            .unwrap();
        LockedModel::new(gb.build(out).unwrap(), Key::from_bits(vec![true]))
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let m = model();
        let cfg = ChaosConfig {
            seed: 99,
            transient_rate: 0.4,
            latency_spike_rate: 0.3,
            latency_spike: Duration::ZERO,
            ..ChaosConfig::default()
        };
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let o = ChaosOracle::new(CountingOracle::new(&m), cfg.clone());
            let mut rng = Prng::seed_from_u64(601);
            let mut run: Vec<Result<Vec<u8>, String>> = Vec::new();
            for _ in 0..32 {
                let x = rng.normal_tensor([2, 3]);
                run.push(
                    o.try_query_batch(&x)
                        .map(|y| {
                            y.as_slice()
                                .iter()
                                .flat_map(|v| v.to_le_bytes())
                                .collect::<Vec<u8>>()
                        })
                        .map_err(|e| e.to_string()),
                );
            }
            outcomes.push((run, o.counters()));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(
            outcomes[0].1.transient_errors > 0,
            "schedule injected nothing"
        );
        assert!(outcomes[0].1.latency_spikes > 0);
    }

    #[test]
    fn crash_fires_once_at_scheduled_rows_and_session_survives() {
        let m = model();
        let o = ChaosOracle::new(CountingOracle::new(&m), ChaosConfig::crash_only(1, vec![5]));
        let mut rng = Prng::seed_from_u64(602);
        let x1 = rng.normal_tensor([3, 3]);
        o.try_query_batch(&x1).unwrap();
        let x2 = rng.normal_tensor([3, 3]);
        let crash =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.try_query_batch(&x2)))
                .unwrap_err();
        let crash = crash.downcast::<ChaosCrash>().expect("chaos payload");
        assert_eq!(crash.at_rows, 5);
        assert_eq!(o.counters().crashes, 1);
        // The crashed batch was never answered or counted…
        assert_eq!(o.query_count(), 3);
        // …and the same session keeps serving after the "restart".
        o.try_query_batch(&x2).unwrap();
        assert_eq!(o.query_count(), 6);
        assert_eq!(o.counters().crashes, 1, "each point fires once");
    }

    #[test]
    fn sync_stats_publishes_deltas_once() {
        let m = model();
        let o = ChaosOracle::new(
            CountingOracle::new(&m),
            ChaosConfig {
                seed: 7,
                transient_rate: 0.5,
                ..ChaosConfig::default()
            },
        );
        let mut rng = Prng::seed_from_u64(604);
        for _ in 0..16 {
            let _ = o.try_query_batch(&rng.normal_tensor([1, 3]));
        }
        let stats = QueryStats::new();
        o.sync_stats(&stats);
        o.sync_stats(&stats);
        let faults = o.counters().total();
        assert!(faults > 0);
        assert_eq!(stats.snapshot().injected_faults, faults);
    }

    /// Hook calls and backend answers, in order.
    #[derive(Debug, Default)]
    struct Log(Mutex<Vec<&'static str>>);

    impl Log {
        fn push(&self, event: &'static str) {
            self.0.lock().unwrap().push(event);
        }
    }

    impl WaitHook for Log {
        fn leave(&self) {
            self.push("leave");
        }

        fn enter(&self) {
            self.push("enter");
        }
    }

    #[derive(Debug)]
    struct Logged(CountingOracle, Arc<Log>);

    impl Oracle for Logged {
        fn query_batch(&self, x: &Tensor) -> Tensor {
            self.1.push("answer");
            self.0.query_batch(x)
        }

        fn query_count(&self) -> u64 {
            self.0.query_count()
        }

        fn input_dim(&self) -> usize {
            self.0.input_dim()
        }

        fn output_dim(&self) -> usize {
            self.0.output_dim()
        }
    }

    #[test]
    fn a_latency_spike_tells_the_wait_hook_after_the_backend_answered() {
        let m = model();
        let log = Arc::new(Log::default());
        let x = Prng::seed_from_u64(605).normal_tensor([2, 3]);
        for (rate, expected) in [(1.0, &["answer", "leave"][..]), (0.0, &["answer"][..])] {
            let cfg = ChaosConfig {
                seed: 3,
                latency_spike_rate: rate,
                latency_spike: Duration::from_millis(1),
                ..ChaosConfig::default()
            };
            let o = ChaosOracle::new(Logged(CountingOracle::new(&m), log.clone()), cfg)
                .with_wait_hook(log.clone());
            o.query_batch(&x);
            assert_eq!(std::mem::take(&mut *log.0.lock().unwrap()), expected);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_out_of_range_rate() {
        let m = model();
        ChaosOracle::new(
            CountingOracle::new(&m),
            ChaosConfig {
                latency_spike_rate: 1.5,
                ..ChaosConfig::default()
            },
        );
    }
}
