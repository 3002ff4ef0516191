//! Retry-with-backoff for flaky oracle transports.
//!
//! Hardened deployments drop requests (the transient faults of
//! [`crate::ChaosOracle`] model the transport side of this); a broker that
//! gave up on the first `Backend` error would starve the attack. [`RetryPolicy`] retries
//! transient failures with exponential backoff; budget errors are *not*
//! retried (they are deterministic).
//!
//! Backoffs carry **seeded jitter**: a pure exponential schedule makes
//! every caller that failed together retry together, so concurrent shards
//! hammer a recovering oracle in synchronized bursts. Each retry sleep is
//! shaved by a pseudo-random fraction drawn from a PRNG stream keyed on
//! `(jitter_seed, salt, attempt)` — deterministic for a given caller (the
//! broker salts with its dispatch sequence number), decorrelated across
//! callers. Jitter only changes *when* a retry fires, never its outcome.

use relock_locking::OracleError;
use relock_tensor::rng::Prng;
use std::time::Duration;

/// Default stream key for backoff jitter (see [`RetryPolicy::jitter_seed`]).
const DEFAULT_JITTER_SEED: u64 = 0x5eed_0ff5_e7b4_c0ff;

/// Exponential-backoff retry policy for `Backend` errors, with seeded
/// decorrelating jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Sleep before the first retry.
    pub base_backoff: Duration,
    /// Backoff multiplier per further retry (saturating).
    pub multiplier: u32,
    /// Maximum percentage of each backoff shaved off by jitter
    /// (`0` = fully synchronized exponential schedule, `100` = sleeps
    /// anywhere in `(0, backoff]`).
    pub jitter_pct: u32,
    /// Key of the jitter PRNG stream. Two callers sharing a policy but
    /// salting [`RetryPolicy::run_salted`] differently draw decorrelated
    /// jitter; replaying the same seed + salt replays the same sleeps.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            multiplier: 2,
            jitter_pct: 50,
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            multiplier: 1,
            jitter_pct: 0,
            jitter_seed: 0,
        }
    }

    /// The sleep before the retry following failed attempt `attempt`
    /// (1-based): the exponential backoff `base · multiplier^(attempt-1)`,
    /// minus a seeded pseudo-random shave of up to `jitter_pct` percent.
    ///
    /// Deterministic in `(policy, attempt, salt)` — no global state, no
    /// wall clock — so tests can assert the exact schedule and a replayed
    /// run sleeps identically.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        let mut backoff = self.base_backoff;
        for _ in 1..attempt {
            backoff = backoff.saturating_mul(self.multiplier.max(1));
        }
        if backoff.is_zero() || self.jitter_pct == 0 {
            return backoff;
        }
        let span_nanos =
            (backoff.as_nanos() as u64).saturating_mul(self.jitter_pct.min(100) as u64) / 100;
        if span_nanos == 0 {
            return backoff;
        }
        // One throwaway stream per (seed, salt, attempt): splitmix64
        // seeding decorrelates even adjacent salts, so shards that failed
        // in the same instant spread out instead of thundering back.
        let mut rng =
            Prng::seed_from_u64(self.jitter_seed ^ salt ^ ((attempt as u64) << 48 | 0xb0ff));
        let shave = rng.next_u64() % (span_nanos + 1);
        backoff - Duration::from_nanos(shave)
    }

    /// Runs `f` under this policy. Returns the first success, the first
    /// non-retryable error, or the last `Backend` error with its `attempts`
    /// field set to the true total. Also reports each retry through
    /// `on_retry` (for metrics). Backoff jitter is drawn with the caller's
    /// `salt` (typically a per-dispatch sequence number), so concurrent
    /// retry loops with distinct salts decorrelate.
    pub fn run_salted<T>(
        &self,
        mut f: impl FnMut() -> Result<T, OracleError>,
        mut on_retry: impl FnMut(),
        salt: u64,
    ) -> Result<T, OracleError> {
        let attempts = self.max_attempts.max(1);
        let mut last_message = String::new();
        for attempt in 1..=attempts {
            match f() {
                Ok(v) => return Ok(v),
                Err(OracleError::Backend { message, .. }) => {
                    last_message = message;
                    if attempt < attempts {
                        on_retry();
                        let backoff = self.backoff_for(attempt, salt);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                }
                // Budget failures are deterministic — retrying would just
                // burn wall clock.
                Err(e) => return Err(e),
            }
        }
        Err(OracleError::Backend {
            message: last_message,
            attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(fail_first: u32) -> impl FnMut() -> Result<u32, OracleError> {
        let mut calls = 0u32;
        move || {
            calls += 1;
            if calls <= fail_first {
                Err(OracleError::Backend {
                    message: format!("drop {calls}"),
                    attempts: 1,
                })
            } else {
                Ok(calls)
            }
        }
    }

    #[test]
    fn retries_transient_failures() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
            multiplier: 1,
            ..RetryPolicy::default()
        };
        let mut retries = 0u32;
        let out = policy.run_salted(flaky(2), || retries += 1, 0).unwrap();
        assert_eq!(out, 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn gives_up_with_true_attempt_count() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            multiplier: 1,
            ..RetryPolicy::default()
        };
        let err = policy.run_salted(flaky(99), || {}, 0).unwrap_err();
        assert_eq!(
            err,
            OracleError::Backend {
                message: "drop 3".to_string(),
                attempts: 3
            }
        );
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelated() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            multiplier: 2,
            jitter_pct: 50,
            jitter_seed: 42,
        };
        for attempt in 1..=4u32 {
            let raw = Duration::from_millis(10 << (attempt - 1));
            let jittered = policy.backoff_for(attempt, 7);
            // Bounded: within [raw/2, raw] for jitter_pct = 50.
            assert!(jittered <= raw, "attempt {attempt}: {jittered:?} > {raw:?}");
            assert!(
                jittered >= raw / 2,
                "attempt {attempt}: {jittered:?} < {:?}",
                raw / 2
            );
            // Deterministic: same (seed, salt, attempt) ⇒ same sleep.
            assert_eq!(jittered, policy.backoff_for(attempt, 7));
        }
        // Decorrelated: distinct salts must not all agree — synchronized
        // retries across shards are exactly the thundering herd the
        // jitter exists to break up.
        let sleeps: Vec<Duration> = (0..16u64).map(|salt| policy.backoff_for(1, salt)).collect();
        assert!(
            sleeps.iter().any(|s| *s != sleeps[0]),
            "16 salts drew identical jitter: {sleeps:?}"
        );
    }

    #[test]
    fn zero_jitter_keeps_the_pure_exponential_schedule() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(3),
            multiplier: 2,
            jitter_pct: 0,
            jitter_seed: 9,
        };
        for salt in [0u64, 1, 99] {
            assert_eq!(policy.backoff_for(1, salt), Duration::from_millis(3));
            assert_eq!(policy.backoff_for(2, salt), Duration::from_millis(6));
            assert_eq!(policy.backoff_for(3, salt), Duration::from_millis(12));
        }
    }

    #[test]
    fn budget_errors_are_not_retried() {
        let policy = RetryPolicy::default();
        let mut calls = 0u32;
        let err = policy
            .run_salted(
                || {
                    calls += 1;
                    Err::<(), _>(OracleError::BudgetExhausted {
                        spent: 1,
                        budget: 1,
                        requested: 1,
                    })
                },
                || {},
                0,
            )
            .unwrap_err();
        assert!(matches!(err, OracleError::BudgetExhausted { .. }));
        assert_eq!(calls, 1);
    }
}
