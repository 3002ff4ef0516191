//! Oracle-less key-recovery baselines.
//!
//! Both attacks in this module are *query-free*: they see only the public
//! white-box (architecture + parameters) and never touch the hardware
//! oracle. They exist as honest baselines for the lock-variant × attack
//! matrix — the netlist literature's oracle-less attacks (structural
//! classifiers à la SAIL/GNNUnlock, evolutionary search à la Sisejkovic's
//! neuroevolution) translated to the HPNN setting.
//!
//! The translation is deliberately faithful about *failure*: HPNN keys are
//! sampled independently of the weights, so weight statistics carry no
//! signal about an individual bit on an untrained victim, and confidence
//! landscapes over random-weight networks are flat. Both baselines land at
//! chance on such victims, and the matrix reports that number instead of
//! hiding it.

use crate::config::LearningConfig;
use relock_graph::{Graph, Op};
use relock_locking::Key;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Number of per-slot features extracted by [`weight_site_features`].
pub const WEIGHT_FEATURES: usize = 6;

/// Per-key-slot weight statistics, indexed by slot.
///
/// Unit locks (sign / scale) get statistics of the locked unit's incoming
/// weight row: mean, mean magnitude, standard deviation, peak magnitude,
/// bias, and the fraction of negative weights. Weight-element locks get the
/// element's own value in place of the bias. Trigger comparator slots have
/// no associated weights at all — the comparator is weightless — so their
/// feature vector is identically zero, which is precisely why structural
/// classifiers have nothing to grab onto there.
pub fn weight_site_features(g: &Graph) -> Vec<[f64; WEIGHT_FEATURES]> {
    let mut feats = vec![[0.0; WEIGHT_FEATURES]; g.key_slot_count()];
    for site in g.lock_sites() {
        let node = g.node(site.pre_node);
        if let Some((w, b)) = node.op.params() {
            let out = w.dims()[0];
            let row = site.unit.min(out.saturating_sub(1));
            let cols = w.dims()[1];
            let ws = &w.as_slice()[row * cols..(row + 1) * cols];
            feats[site.slot.index()] = row_features(ws, b.as_slice().get(row).copied());
        }
    }
    for node in g.nodes() {
        if let Op::Linear {
            w, weight_locks, ..
        } = &node.op
        {
            let cols = w.dims()[1];
            for l in weight_locks {
                let ws = &w.as_slice()[l.row * cols..(l.row + 1) * cols];
                let elem = ws[l.col];
                feats[l.slot.index()] = row_features(ws, Some(elem));
            }
        }
    }
    feats
}

fn row_features(ws: &[f64], bias: Option<f64>) -> [f64; WEIGHT_FEATURES] {
    let n = ws.len().max(1) as f64;
    let mean = ws.iter().sum::<f64>() / n;
    let abs_mean = ws.iter().map(|v| v.abs()).sum::<f64>() / n;
    let var = ws.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let max_abs = ws.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let frac_neg = ws.iter().filter(|v| **v < 0.0).count() as f64 / n;
    [
        mean,
        abs_mean,
        var.sqrt(),
        max_abs,
        bias.unwrap_or(0.0),
        frac_neg,
    ]
}

/// A logistic-regression key-bit classifier over [`weight_site_features`]
/// — the SAIL-style structural attack at HPNN granularity. (With six
/// inputs and one output it is the degenerate single-layer case of the
/// workspace's MLPs; training is plain full-batch gradient descent and
/// entirely deterministic.)
#[derive(Debug, Clone)]
pub struct WeightStatsClassifier {
    w: [f64; WEIGHT_FEATURES],
    b: f64,
}

impl WeightStatsClassifier {
    /// Fits the classifier on `(features, bit)` examples harvested from
    /// attacker-generated locked models with known keys.
    pub fn train(examples: &[([f64; WEIGHT_FEATURES], bool)], epochs: usize, lr: f64) -> Self {
        let mut w = [0.0; WEIGHT_FEATURES];
        let mut b = 0.0;
        if examples.is_empty() {
            return WeightStatsClassifier { w, b };
        }
        let n = examples.len() as f64;
        for _ in 0..epochs {
            let mut gw = [0.0; WEIGHT_FEATURES];
            let mut gb = 0.0;
            for (x, y) in examples {
                let z: f64 = x.iter().zip(&w).map(|(a, c)| a * c).sum::<f64>() + b;
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - f64::from(*y);
                for (g, a) in gw.iter_mut().zip(x) {
                    *g += err * a;
                }
                gb += err;
            }
            for (wi, g) in w.iter_mut().zip(&gw) {
                *wi -= lr * g / n;
            }
            b -= lr * gb / n;
        }
        WeightStatsClassifier { w, b }
    }

    /// Predicted probability that a slot's bit is 1.
    pub fn predict(&self, x: &[f64; WEIGHT_FEATURES]) -> f64 {
        let z: f64 = x.iter().zip(&self.w).map(|(a, c)| a * c).sum::<f64>() + self.b;
        1.0 / (1.0 + (-z).exp())
    }

    /// Predicts a whole key from a victim white-box.
    pub fn predict_key(&self, victim: &Graph) -> Key {
        let bits = weight_site_features(victim)
            .iter()
            .map(|x| self.predict(x) >= 0.5)
            .collect();
        Key::from_bits(bits)
    }
}

/// Outcome of an oracle-less baseline. `queries` is structurally zero —
/// kept as a field so matrix rows stay comparable across attacks.
#[derive(Debug, Clone)]
pub struct OracleLessReport {
    /// Recovered key.
    pub key: Key,
    /// Attack-internal score (training accuracy for the classifier, best
    /// population fitness for the neuroevolution).
    pub score: f64,
    /// Oracle queries spent — always 0 for this module.
    pub queries: u64,
}

/// Runs the weight-statistics classifier end to end: harvest features and
/// labels from attacker-built `(white_box, known_key)` training models,
/// fit, and predict the victim's key.
pub fn weight_stats_attack(
    victim: &Graph,
    training: &[(&Graph, &Key)],
    cfg: &LearningConfig,
) -> OracleLessReport {
    let mut examples = Vec::new();
    for (g, key) in training {
        for (slot, x) in weight_site_features(g).into_iter().enumerate() {
            examples.push((x, key.bit(slot)));
        }
    }
    let clf = WeightStatsClassifier::train(&examples, cfg.epochs, cfg.lr);
    let train_acc = if examples.is_empty() {
        0.5
    } else {
        examples
            .iter()
            .filter(|(x, y)| (clf.predict(x) >= 0.5) == *y)
            .count() as f64
            / examples.len() as f64
    };
    OracleLessReport {
        key: clf.predict_key(victim),
        score: train_acc,
        queries: 0,
    }
}

/// Budgets of the neuroevolutionary search.
#[derive(Debug, Clone, Copy)]
pub struct EvolutionConfig {
    /// Population size.
    pub population: usize,
    /// Generations evolved.
    pub generations: usize,
    /// Random white-box inputs the confidence fitness is averaged over.
    pub samples: usize,
    /// Standard deviation of those inputs.
    pub input_scale: f64,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig {
            population: 16,
            generations: 20,
            samples: 32,
            input_scale: 3.0,
            mutation_rate: 0.1,
            tournament: 3,
        }
    }
}

/// Mean top-class softmax confidence of the white-box under `key` over a
/// fixed probe batch — the Sisejkovic-style proxy fitness: a wrong key is
/// hypothesised to corrupt activations and flatten the output
/// distribution. (True for trained victims; flat for random weights.)
fn confidence_fitness(white_box: &Graph, probes: &Tensor, key: &Key) -> f64 {
    let y = white_box.logits_batch(probes, &key.to_assignment());
    let (batch, q) = (y.dims()[0], y.dims()[1]);
    let ys = y.as_slice();
    let mut total = 0.0;
    for s in 0..batch {
        let p = Tensor::from_slice(&ys[s * q..(s + 1) * q]).softmax();
        total += p.as_slice().iter().fold(0.0f64, |m, v| m.max(*v));
    }
    total / batch.max(1) as f64
}

/// Seeded neuroevolutionary key search (zero oracle queries).
///
/// Evolves a population of candidate keys under tournament selection,
/// uniform crossover and per-bit mutation, scoring each candidate by
/// white-box confidence (the mean top-class softmax probability) on a
/// fixed random probe batch. Sequential and fully determined by `rng`;
/// ties keep the earlier individual.
pub fn neuroevolution_key_search(
    white_box: &Graph,
    cfg: &EvolutionConfig,
    rng: &mut Prng,
) -> OracleLessReport {
    let n = white_box.key_slot_count();
    let probes = rng
        .normal_tensor([cfg.samples.max(1), white_box.input_size()])
        .scale(cfg.input_scale);
    let score = |k: &Key| confidence_fitness(white_box, &probes, k);

    let mut pop: Vec<(Key, f64)> = (0..cfg.population.max(2))
        .map(|_| {
            let k = Key::random(n, rng);
            let f = score(&k);
            (k, f)
        })
        .collect();
    let best_of = |pop: &[(Key, f64)]| {
        let mut bi = 0;
        for (i, (_, f)) in pop.iter().enumerate().skip(1) {
            if *f > pop[bi].1 {
                bi = i;
            }
        }
        bi
    };
    for _ in 0..cfg.generations {
        let elite = pop[best_of(&pop)].clone();
        let mut next = vec![elite];
        while next.len() < pop.len() {
            let pick = |rng: &mut Prng| {
                let mut best = rng.below(pop.len());
                for _ in 1..cfg.tournament.max(1) {
                    let c = rng.below(pop.len());
                    if pop[c].1 > pop[best].1 {
                        best = c;
                    }
                }
                best
            };
            let (a, b) = (pick(rng), pick(rng));
            let mut bits = Vec::with_capacity(n);
            for i in 0..n {
                let parent = if rng.flip() { a } else { b };
                let mut bit = pop[parent].0.bit(i);
                if rng.uniform() < cfg.mutation_rate {
                    bit = !bit;
                }
                bits.push(bit);
            }
            let k = Key::from_bits(bits);
            let f = score(&k);
            next.push((k, f));
        }
        pop = next;
    }
    let (key, fit) = pop.swap_remove(best_of(&pop));
    OracleLessReport {
        key,
        score: fit,
        queries: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::LockSpec;
    use relock_nn::{build_mlp, MlpSpec};

    fn spec() -> MlpSpec {
        MlpSpec {
            input: 10,
            hidden: vec![8, 6],
            classes: 3,
        }
    }

    #[test]
    fn features_are_indexed_by_slot_and_zero_for_triggers() {
        let mut rng = Prng::seed_from_u64(70);
        let unit = build_mlp(&spec(), LockSpec::evenly(6), &mut rng).unwrap();
        let f = weight_site_features(unit.white_box());
        assert_eq!(f.len(), 6);
        assert!(f.iter().all(|x| x[3] > 0.0), "peak |w| must be positive");

        let trig = build_mlp(&spec(), LockSpec::sar(6), &mut rng).unwrap();
        let ft = weight_site_features(trig.white_box());
        assert_eq!(ft.len(), 6);
        assert!(ft.iter().all(|x| x.iter().all(|v| *v == 0.0)));
    }

    #[test]
    fn classifier_learns_a_separable_toy_problem() {
        let mut examples = Vec::new();
        for i in 0..40 {
            let v = f64::from(i % 2);
            let mut x = [0.0; WEIGHT_FEATURES];
            x[0] = 2.0 * v - 1.0;
            examples.push((x, v > 0.5));
        }
        let clf = WeightStatsClassifier::train(&examples, 200, 0.5);
        assert!(examples.iter().all(|(x, y)| (clf.predict(x) >= 0.5) == *y));
    }

    #[test]
    fn weight_stats_attack_runs_query_free_and_deterministic() {
        let mut rng = Prng::seed_from_u64(71);
        let victim = build_mlp(&spec(), LockSpec::evenly(6), &mut rng).unwrap();
        let t1 = build_mlp(&spec(), LockSpec::evenly(6), &mut rng).unwrap();
        let t2 = build_mlp(&spec(), LockSpec::evenly(6), &mut rng).unwrap();
        let training = [
            (t1.white_box(), t1.true_key()),
            (t2.white_box(), t2.true_key()),
        ];
        let cfg = LearningConfig::default();
        let a = weight_stats_attack(victim.white_box(), &training, &cfg);
        let b = weight_stats_attack(victim.white_box(), &training, &cfg);
        assert_eq!(a.key.bits(), b.key.bits());
        assert_eq!(a.queries, 0);
        assert_eq!(a.key.len(), 6);
    }

    #[test]
    fn neuroevolution_is_deterministic_and_query_free() {
        let mut rng = Prng::seed_from_u64(72);
        let m = build_mlp(&spec(), LockSpec::antisat(6), &mut rng).unwrap();
        let cfg = EvolutionConfig {
            generations: 5,
            ..EvolutionConfig::default()
        };
        let a = neuroevolution_key_search(m.white_box(), &cfg, &mut Prng::seed_from_u64(12));
        let b = neuroevolution_key_search(m.white_box(), &cfg, &mut Prng::seed_from_u64(12));
        assert_eq!(a.key.bits(), b.key.bits());
        assert_eq!(a.queries, 0);
        assert!(a.score > 0.0 && a.score <= 1.0);
    }
}
