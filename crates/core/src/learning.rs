//! The learning-based attack (paper §3.6).
//!
//! Every unresolved flipping unit is relaxed to a continuous multiplier
//! `m = tanh(θ) ∈ (−1, 1)` — the paper's sigmoid-with-[-1,1]-range
//! substitution. With all weights and decrypted bits frozen, the θ are
//! trained by Adam to minimize the mean squared error between the
//! white-box's logits and oracle responses on random inputs. Bits whose
//! multiplier reaches the confidence threshold are *settled* (frozen to
//! ±1) during training, exactly as §4.1 describes.
//!
//! A step recomputes only what still moves. The call splits the graph by
//! a [`MovingSet`]: the nodes that read an unsettled free slot, or read
//! such a node, move; the rest is frozen. The frozen frontier (what the
//! moving nodes read) is evaluated once over the training set, in
//! mini-batch chunks, and each Adam step gathers its rows from that cache
//! and runs forward and keys-only backward over the moving nodes alone.
//! Settles happen at epoch ends; when they leave a keyed node with no
//! moving slot, the set shrinks and the frontier is evaluated again. The
//! cache lives for one call, so checkpoints never see it.
//!
//! The bits are those of a full pass per step: a row's values never
//! depend on its batch mates, settled and fixed bits are exactly ±1, and
//! nodes outside the moving set pass no gradient to a moving slot (see
//! [`Graph::backward_keys_into`]).

use crate::config::{LearningConfig, INPUT_SCALE};
use crate::probs::{looks_like_probabilities, softmax_rows_into, softmax_vjp_rows_into};
use relock_graph::{Graph, KeyAssignment, KeySlot, MovingSet, Workspace};
use relock_locking::Oracle;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::collections::BTreeMap;

/// Outcome of a learning attack: the final continuous multiplier of every
/// requested slot. Settled bits report ±1; `|multiplier|` is the paper's
/// confidence level, which drives `error_correction`'s flip order. Slot
/// order makes a map's checkpoint bytes a function of its contents.
pub type LearnedMultipliers = BTreeMap<KeySlot, f64>;

/// Adam learning rate on the key logits θ (multiplier = tanh θ).
pub(crate) const LEARNING_RATE: f64 = 0.08;
/// |multiplier| at which a key bit is *settled* (frozen to ±1) during
/// training — the paper's confidence threshold.
const CONFIDENCE: f64 = 0.95;

fn atanh_clamped(m: f64) -> f64 {
    let c = m.clamp(-0.985, 0.985);
    0.5 * ((1.0 + c) / (1.0 - c)).ln()
}

/// Runs the learning-based attack.
///
/// * `fixed_bits` — already decrypted bits (preceding layers and algebraic
///   successes of the current layer), enforced at ±1 throughout;
/// * `free_slots` — the bits to learn (the current layer's ⊥ bits plus all
///   bits of subsequent layers, which must co-adapt for the loss to be
///   meaningful);
/// * `warm_start` — multipliers from a previous invocation (Algorithm 2
///   re-runs the attack layer by layer; warm starting makes later layers
///   cheap).
///
/// Training samples are drawn at the attacks' fixed input scale, θ moves
/// at Adam rate 0.08, and a bit settles once `|tanh θ| ≥ 0.95`.
///
/// Returns the final multiplier per free slot.
pub fn learning_attack(
    g: &Graph,
    oracle: &dyn Oracle,
    fixed_bits: &BTreeMap<KeySlot, bool>,
    free_slots: &[KeySlot],
    warm_start: &LearnedMultipliers,
    cfg: &LearningConfig,
    rng: &mut Prng,
) -> LearnedMultipliers {
    let p = g.input_size();
    let n_slots = g.key_slot_count();
    let mut ka = KeyAssignment::all_zero_bits(n_slots);
    for (&slot, &bit) in fixed_bits {
        ka.set_bit(slot, bit);
    }
    if free_slots.is_empty() {
        return LearnedMultipliers::new();
    }

    // θ parameters for the free slots.
    let mut theta: Vec<f64> = free_slots
        .iter()
        .map(|s| match warm_start.get(s) {
            Some(&m) => atanh_clamped(m),
            None => 0.05 * rng.normal(),
        })
        .collect();
    let mut settled: Vec<bool> = vec![false; free_slots.len()];
    for (i, s) in free_slots.iter().enumerate() {
        ka.set(*s, theta[i].tanh());
    }

    // Oracle-labelled training set: random inputs, one query per row. A
    // budgeted oracle may afford fewer than `cfg.samples` rows — harvest
    // what it can pay for; if it can pay for nothing (or the backend is
    // gone), return the warm start unchanged: a degraded-but-usable
    // candidate beats a panic.
    let samples = match oracle.remaining_budget() {
        Some(left) => (left.min(cfg.samples as u64)) as usize,
        None => cfg.samples,
    };
    let fallback = || -> LearnedMultipliers {
        free_slots
            .iter()
            .map(|s| (*s, warm_start.get(s).copied().unwrap_or(0.0)))
            .collect()
    };
    if samples == 0 {
        return fallback();
    }
    let x = rng.normal_tensor([samples, p]).scale(INPUT_SCALE);
    let Ok(y) = oracle.try_query_batch(&x) else {
        return fallback();
    };
    let q = y.dims()[1];
    // A probability oracle (§2.3 "output vector") is matched in
    // probability space, chaining the softmax into the gradient.
    let oracle_is_softmax = looks_like_probabilities(&y);

    // Adam state over θ.
    let (mut m1, mut m2) = (vec![0.0; theta.len()], vec![0.0; theta.len()]);
    let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
    let mut t = 0u64;
    // One workspace for the whole run; the weights are frozen (only θ
    // moves), so the planned path's cached effective weights survive the
    // whole training loop.
    let mut ws = Workspace::new();
    // The nodes the unsettled free slots reach are the only ones a step
    // recomputes; the frozen rest's frontier is evaluated once per moving
    // set over the whole training set.
    let mut moves = vec![false; n_slots];
    for s in free_slots {
        moves[s.index()] = true;
    }
    let mut moving = MovingSet::new(g, |s| moves[s.index()]);
    let mut frontier = Vec::new();
    g.eval_frontier_into(&mut ws, &moving, &x, &ka, cfg.batch, &mut frontier);
    // Step buffers, reused by every step.
    let mut order: Vec<usize> = Vec::with_capacity(samples);
    let mut grad_out = Tensor::zeros([0]);
    let (mut probs, mut diff) = (Tensor::zeros([0]), Tensor::zeros([0]));
    let mut key_grads = vec![0.0; n_slots];

    let mut best_loss = f64::INFINITY;
    let mut stale_epochs = 0usize;

    for _ in 0..cfg.epochs {
        order.clear();
        order.extend(0..samples);
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch) {
            g.forward_moving_into(&mut ws, &moving, &frontier, chunk, &ka);
            let logits = ws.value(g.output_id());
            let scale = 2.0 / (chunk.len() * q) as f64;
            // The loss is on the residual; `grad_out` takes its gradient at
            // the logits.
            let residual = if oracle_is_softmax {
                softmax_rows_into(logits, &mut probs);
                residual_into(&probs, &y, chunk, &mut diff);
                &mut diff
            } else {
                residual_into(logits, &y, chunk, &mut grad_out);
                &mut grad_out
            };
            epoch_loss +=
                residual.as_slice().iter().map(|d| d * d).sum::<f64>() / (chunk.len() * q) as f64;
            residual.scale_inplace(scale);
            if oracle_is_softmax {
                softmax_vjp_rows_into(&probs, &diff, &mut grad_out);
            }
            batches += 1;
            g.backward_keys_into(&mut ws, &moving, &grad_out, &ka, &mut key_grads);

            t += 1;
            let (bc1, bc2) = (1.0 - b1.powi(t as i32), 1.0 - b2.powi(t as i32));
            for (i, slot) in free_slots.iter().enumerate() {
                if settled[i] {
                    continue;
                }
                let m = theta[i].tanh();
                let dm = key_grads[slot.index()];
                let dtheta = dm * (1.0 - m * m);
                m1[i] = b1 * m1[i] + (1.0 - b1) * dtheta;
                m2[i] = b2 * m2[i] + (1.0 - b2) * dtheta * dtheta;
                theta[i] -= LEARNING_RATE * (m1[i] / bc1) / ((m2[i] / bc2).sqrt() + eps);
                ka.set(*slot, theta[i].tanh());
            }
        }
        epoch_loss /= batches.max(1) as f64;

        // Settle confident bits (freeze to ±1).
        let mut newly_settled = false;
        for (i, slot) in free_slots.iter().enumerate() {
            if !settled[i] && theta[i].tanh().abs() >= CONFIDENCE {
                settled[i] = true;
                newly_settled = true;
                moves[slot.index()] = false;
                ka.set(*slot, theta[i].tanh().signum());
            }
        }
        if settled.iter().all(|&s| s) {
            break;
        }
        // A settled bit is exactly ±1 from now on: once a keyed node reads
        // no moving slot, it joins the frozen rest.
        if newly_settled {
            let next = MovingSet::new(g, |s| moves[s.index()]);
            if next != moving {
                moving = next;
                g.eval_frontier_into(&mut ws, &moving, &x, &ka, cfg.batch, &mut frontier);
            }
        }
        // Early stopping: no settles and no loss progress.
        if newly_settled || epoch_loss < best_loss * 0.999 {
            stale_epochs = 0;
        } else {
            stale_epochs += 1;
            if stale_epochs >= cfg.patience {
                break;
            }
        }
        best_loss = best_loss.min(epoch_loss);
    }

    free_slots
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let m = if settled[i] {
                theta[i].tanh().signum()
            } else {
                theta[i].tanh()
            };
            (*s, m)
        })
        .collect()
}

/// Fills `out` with `pred − y` at the training rows `rows`, one row each.
fn residual_into(pred: &Tensor, y: &Tensor, rows: &[usize], out: &mut Tensor) {
    let q = pred.dims()[1];
    out.reset_shape([rows.len(), q]);
    for ((o, p), &r) in out
        .as_mut_slice()
        .chunks_exact_mut(q)
        .zip(pred.as_slice().chunks_exact(q))
        .zip(rows)
    {
        for ((o, &a), &b) in o.iter_mut().zip(p).zip(y.row(r)) {
            *o = a - b;
        }
    }
}

/// Rounds learned multipliers to key bits (`m < 0 ⇒ bit 1`) — the paper's
/// final ⊥ replacement rule.
pub fn round_to_bits(multipliers: &LearnedMultipliers) -> BTreeMap<KeySlot, bool> {
    multipliers.iter().map(|(&s, &m)| (s, m < 0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_locking::{CountingOracle, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};

    #[test]
    fn learns_key_of_small_expansive_mlp() {
        // Expansive first layer (16 > 8): the algebraic path is blind here,
        // this is exactly the case the learning attack exists for.
        let mut rng = Prng::seed_from_u64(110);
        let model = build_mlp(
            &MlpSpec {
                input: 8,
                hidden: vec![16],
                classes: 4,
            },
            LockSpec::evenly(6),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let free: Vec<KeySlot> = g.lock_sites().iter().map(|s| s.slot).collect();
        let cfg = LearningConfig {
            samples: 128,
            epochs: 120,
            ..LearningConfig::default()
        };
        let mut arng = Prng::seed_from_u64(111);
        let learned = learning_attack(
            g,
            &oracle,
            &BTreeMap::new(),
            &free,
            &LearnedMultipliers::new(),
            &cfg,
            &mut arng,
        );
        let bits = round_to_bits(&learned);
        let correct = bits
            .iter()
            .filter(|(s, &b)| model.true_key().bit(s.index()) == b)
            .count();
        // The learning attack is not guaranteed exact (that is what §3.7's
        // validation exists for), but it must recover a clear majority and
        // every *confident* bit must be right.
        assert!(
            correct >= 4,
            "learning attack recovered only {correct}/6 bits: {learned:?}"
        );
        for (slot, &m) in &learned {
            if m.abs() >= CONFIDENCE {
                assert_eq!(
                    m < 0.0,
                    model.true_key().bit(slot.index()),
                    "confident bit {slot} is wrong (m = {m})"
                );
            }
        }
        // Exactly `samples` oracle queries were spent.
        assert_eq!(oracle.query_count(), 128);
    }

    #[test]
    fn fixed_bits_are_respected_and_not_returned() {
        let mut rng = Prng::seed_from_u64(112);
        let model = build_mlp(
            &MlpSpec {
                input: 6,
                hidden: vec![10],
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let sites = g.lock_sites();
        let mut fixed = BTreeMap::new();
        fixed.insert(sites[0].slot, model.true_key().bit(sites[0].slot.index()));
        let free: Vec<KeySlot> = sites[1..].iter().map(|s| s.slot).collect();
        let mut arng = Prng::seed_from_u64(113);
        let learned = learning_attack(
            g,
            &oracle,
            &fixed,
            &free,
            &LearnedMultipliers::new(),
            &LearningConfig::default(),
            &mut arng,
        );
        assert!(!learned.contains_key(&sites[0].slot));
        assert_eq!(learned.len(), 3);
    }

    #[test]
    fn empty_free_set_is_a_no_op() {
        let mut rng = Prng::seed_from_u64(114);
        let model = build_mlp(
            &MlpSpec {
                input: 4,
                hidden: vec![4],
                classes: 2,
            },
            LockSpec::none(),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let out = learning_attack(
            model.white_box(),
            &oracle,
            &BTreeMap::new(),
            &[],
            &LearnedMultipliers::new(),
            &LearningConfig::default(),
            &mut Prng::seed_from_u64(115),
        );
        assert!(out.is_empty());
        assert_eq!(oracle.query_count(), 0);
    }
}
