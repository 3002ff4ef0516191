//! The monolithic learning-based attack (paper §4.3) — the baseline that
//! Table 1 compares the decryption algorithm against.
//!
//! It is simply the §3.6 learning attack applied to **all** key bits at
//! once, with no algebraic help, no per-layer decomposition, no validation
//! and no error correction. The paper shows it works for small networks and
//! small key sizes but plateaus near 50–60% fidelity on large expansive
//! models — behaviour this implementation reproduces.

use crate::config::LearningConfig;
use crate::learning::{learning_attack, round_to_bits, LearnedMultipliers};
use crate::telemetry::{Procedure, QueryStatsSnapshot};
use relock_graph::{Graph, KeySlot};
use relock_locking::{Key, Oracle};
use relock_serve::Broker;
use relock_tensor::rng::Prng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Outcome of the monolithic attack.
#[derive(Debug, Clone)]
pub struct MonolithicReport {
    /// The extracted key (every ⊥ rounded by multiplier sign).
    pub key: Key,
    /// Final continuous multipliers (confidence = |value|).
    pub multipliers: Vec<f64>,
    /// Wall-clock time of the attack.
    pub elapsed: Duration,
    /// Oracle queries spent.
    pub queries: u64,
    /// Broker-side query accounting (cache hits, batches, latency).
    pub stats: QueryStatsSnapshot,
}

/// The monolithic learning-based attack.
#[derive(Debug, Clone)]
pub struct MonolithicAttack {
    cfg: LearningConfig,
}

impl MonolithicAttack {
    /// Creates the attack with the given learning budgets, typically
    /// [`LearningConfig::monolithic`].
    pub fn new(cfg: LearningConfig) -> Self {
        MonolithicAttack { cfg }
    }

    /// Runs the baseline against `oracle`.
    ///
    /// Traffic is routed through a fresh `relock-serve` [`Broker`] like the
    /// decryption attack's, so the reported query count follows the same
    /// accounting semantics (underlying rows; cache hits free). To use a
    /// caller's broker, for instance one that records into a flight
    /// recorder, use [`MonolithicAttack::run_brokered`].
    pub fn run(&self, white_box: &Graph, oracle: &dyn Oracle, rng: &mut Prng) -> MonolithicReport {
        self.run_brokered(white_box, &Broker::new(oracle), rng)
    }

    /// Runs the baseline through a caller-supplied [`Broker`], tagging its
    /// traffic with the `learning_attack` scope. The report's `queries`
    /// counts this run's underlying rows; its `stats` are the broker's
    /// snapshot.
    pub fn run_brokered<O: Oracle>(
        &self,
        white_box: &Graph,
        broker: &Broker<O>,
        rng: &mut Prng,
    ) -> MonolithicReport {
        let start = Instant::now();
        broker.set_scope(Some(Procedure::LearningAttack.label()));
        let start_queries = broker.query_count();
        let free: Vec<KeySlot> = (0..white_box.key_slot_count()).map(KeySlot).collect();
        let learned = learning_attack(
            white_box,
            broker,
            &BTreeMap::new(),
            &free,
            &LearnedMultipliers::new(),
            &self.cfg,
            rng,
        );
        let bits_map = round_to_bits(&learned);
        let bits: Vec<bool> = free
            .iter()
            .map(|s| bits_map.get(s).copied().unwrap_or(false))
            .collect();
        let multipliers: Vec<f64> = free
            .iter()
            .map(|s| learned.get(s).copied().unwrap_or(0.0))
            .collect();
        broker.set_scope(None);
        MonolithicReport {
            key: Key::from_bits(bits),
            multipliers,
            elapsed: start.elapsed(),
            queries: broker.query_count() - start_queries,
            stats: broker.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::{CountingOracle, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};

    #[test]
    fn recovers_small_mlp_key_mostly() {
        let mut rng = Prng::seed_from_u64(140);
        let model = build_mlp(
            &MlpSpec {
                input: 10,
                hidden: vec![8, 6],
                classes: 4,
            },
            LockSpec::evenly(6),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let cfg = LearningConfig {
            samples: 200,
            epochs: 100,
            ..LearningConfig::default()
        };
        let report = MonolithicAttack::new(cfg).run(
            model.white_box(),
            &oracle,
            &mut Prng::seed_from_u64(141),
        );
        let fidelity = report.key.fidelity(model.true_key());
        assert!(fidelity >= 0.8, "fidelity {fidelity}");
        assert_eq!(report.queries, 200);
        assert_eq!(report.multipliers.len(), 6);
    }
}
