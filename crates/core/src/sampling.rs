//! Oracle-guided sampling key search for trigger-locked victims.
//!
//! The algebraic [`Decryptor`](crate::Decryptor) works by isolating each
//! lock site on a critical point of its pre-activation hyperplane. Trigger
//! locks (SARLock / Anti-SAT style comparators, DESIGN.md §3h) have no such
//! per-unit sites: the key feeds a comparator over input sign patterns, and
//! a wrong key corrupts the output only on an exponentially small input
//! subspace. The best a black-box sampling attacker can do is draw random
//! probes, query the oracle once, and hill-climb a key that maximises
//! agreement between the white-box and the oracle on those probes.
//!
//! This module implements that attacker honestly. On unit locks (sign /
//! scale) the landscape is informative and the search recovers most bits;
//! on trigger locks almost no random probe lands in the trigger subspace,
//! the fitness landscape is flat, and the search returns a key that is
//! correct only by chance — which is exactly the point the lock-variant ×
//! attack matrix makes.

use crate::config::{AttackConfig, INPUT_SCALE};
use relock_graph::Graph;
use relock_locking::{Key, Oracle};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Independent restarts of the greedy climb (best key wins; ties keep the
/// earlier restart so the result is deterministic).
const RESTARTS: usize = 4;
/// Full passes over the key bits per restart.
const SWEEPS: usize = 3;

/// Outcome of [`sampling_key_search`].
#[derive(Debug, Clone)]
pub struct SamplingReport {
    /// Best key found.
    pub key: Key,
    /// Oracle queries spent (the single probe batch).
    pub queries: u64,
    /// Fraction of probes whose argmax under [`key`](SamplingReport::key)
    /// matches the oracle's.
    pub agreement: f64,
}

fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = i;
        }
    }
    best
}

fn argmax_rows(y: &Tensor) -> Vec<usize> {
    let (batch, q) = (y.dims()[0], y.dims()[1]);
    let ys = y.as_slice();
    (0..batch)
        .map(|s| argmax(&ys[s * q..(s + 1) * q]))
        .collect()
}

fn fitness(white_box: &Graph, probes: &Tensor, labels: &[usize], key: &Key) -> usize {
    let y = white_box.logits_batch(probes, &key.to_assignment());
    argmax_rows(&y)
        .iter()
        .zip(labels)
        .filter(|(a, b)| a == b)
        .count()
}

/// Greedy bit-flip key search against a one-shot batch of oracle-labelled
/// probes.
///
/// Draws one random probe per learning sample (`cfg.learning.samples`,
/// clamped to 16..=256, so `--fast` shapes this attack too), labels them
/// with a single [`Oracle::query_batch`], then runs 4 greedy climbs from
/// random starting keys: each of up to 3 sweeps visits every bit in slot
/// order and keeps a flip only when it strictly improves argmax agreement
/// with the oracle. The budgets are deliberately tiny: the climb is pure
/// white-box compute. Entirely sequential and seeded, so the recovered key
/// and the query count are byte-identical regardless of `RELOCK_THREADS`
/// or the worker topology.
pub fn sampling_key_search<O: Oracle>(
    white_box: &Graph,
    oracle: &O,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> SamplingReport {
    let n = white_box.key_slot_count();
    let n_probes = cfg.learning.samples.clamp(16, 256);
    let probes = rng
        .normal_tensor([n_probes, white_box.input_size()])
        .scale(INPUT_SCALE);
    let before = oracle.query_count();
    let labels = argmax_rows(&oracle.query_batch(&probes));
    let queries = oracle.query_count() - before;

    let mut best_key = Key::zeros(n);
    let mut best_fit = fitness(white_box, &probes, &labels, &best_key);
    for _ in 0..RESTARTS {
        let mut key = Key::random(n, rng);
        let mut fit = fitness(white_box, &probes, &labels, &key);
        for _ in 0..SWEEPS {
            let mut improved = false;
            for bit in 0..n {
                key.flip_bit(bit);
                let cand = fitness(white_box, &probes, &labels, &key);
                if cand > fit {
                    fit = cand;
                    improved = true;
                } else {
                    key.flip_bit(bit);
                }
            }
            if !improved {
                break;
            }
        }
        if fit > best_fit {
            best_fit = fit;
            best_key = key;
        }
    }
    SamplingReport {
        key: best_key,
        queries,
        agreement: best_fit as f64 / n_probes as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearningConfig;
    use relock_locking::{CountingOracle, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};

    /// 64 probes.
    fn cfg() -> AttackConfig {
        AttackConfig {
            learning: LearningConfig {
                samples: 64,
                ..LearningConfig::default()
            },
            ..AttackConfig::default()
        }
    }

    fn spec() -> MlpSpec {
        MlpSpec {
            input: 12,
            hidden: vec![10, 6],
            classes: 3,
        }
    }

    #[test]
    fn search_is_deterministic_and_counts_queries() {
        let mut rng = Prng::seed_from_u64(60);
        let m = build_mlp(&spec(), LockSpec::sar(8), &mut rng).unwrap();
        let oracle = CountingOracle::new(&m);
        let a = sampling_key_search(m.white_box(), &oracle, &cfg(), &mut Prng::seed_from_u64(9));
        let b = sampling_key_search(m.white_box(), &oracle, &cfg(), &mut Prng::seed_from_u64(9));
        assert_eq!(a.key.bits(), b.key.bits());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.queries, 64);
    }

    #[test]
    fn recovers_unit_sign_locks_well() {
        let mut rng = Prng::seed_from_u64(61);
        let m = build_mlp(&spec(), LockSpec::evenly(6), &mut rng).unwrap();
        let oracle = CountingOracle::new(&m);
        let report =
            sampling_key_search(m.white_box(), &oracle, &cfg(), &mut Prng::seed_from_u64(10));
        // Sign locks corrupt roughly half the input space per wrong bit, so
        // random probes carry plenty of signal.
        assert!(report.agreement >= 0.9, "agreement {}", report.agreement);
    }

    #[test]
    fn trigger_locks_leave_the_landscape_flat() {
        let mut rng = Prng::seed_from_u64(62);
        let m = build_mlp(&spec(), LockSpec::sar(10), &mut rng).unwrap();
        let oracle = CountingOracle::new(&m);
        let report =
            sampling_key_search(m.white_box(), &oracle, &cfg(), &mut Prng::seed_from_u64(11));
        // A wrong key corrupts only 2 of 2^10 sign patterns: the probes all
        // agree regardless of the key, so agreement is perfect even though
        // the key itself is (almost surely) wrong.
        assert!(report.agreement >= 0.95);
    }
}
