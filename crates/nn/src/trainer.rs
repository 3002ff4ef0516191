//! Training locked models as functions of their keys (HPNN protocol).

use relock_data::Dataset;
use relock_graph::{Graph, NodeId};
use relock_locking::LockedModel;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::collections::HashMap;

/// Softmax cross-entropy loss and its gradient at the logits.
///
/// Returns `(mean loss, (B, Q) gradient)`.
///
/// # Panics
///
/// Panics if a label is out of range for the logits width.
pub(crate) fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f64, Tensor) {
    let (b, q) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(b, labels.len(), "batch/labels mismatch");
    let mut grad = Tensor::zeros([b, q]);
    let mut loss = 0.0;
    let inv_b = 1.0 / b as f64;
    for s in 0..b {
        let row = Tensor::from_slice(logits.row(s));
        let probs = row.softmax();
        let label = labels[s];
        assert!(label < q, "label {label} out of range for {q} classes");
        loss -= probs.as_slice()[label].max(1e-300).ln();
        let g = grad.row_mut(s);
        for (c, &p) in probs.as_slice().iter().enumerate() {
            g[c] = (p - f64::from(u8::from(c == label))) * inv_b;
        }
    }
    (loss * inv_b, grad)
}

/// Adam state for one parameter tensor.
#[derive(Debug, Clone)]
struct AdamState {
    m: Tensor,
    v: Tensor,
}

/// Adam optimizer over a graph's `(weight, bias)` parameter pairs.
#[derive(Debug)]
pub(crate) struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    state: HashMap<(usize, u8), AdamState>,
}

impl Adam {
    pub(crate) fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Applies one step given per-node `(weight, bias)` gradients.
    pub(crate) fn step(&mut self, graph: &mut Graph, param_grads: &[Option<(Tensor, Tensor)>]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, grads) in param_grads.iter().enumerate() {
            let Some((gw, gb)) = grads else { continue };
            let Some((w, b)) = graph.params_mut(NodeId(idx)) else {
                continue;
            };
            for (which, (param, grad)) in [(0u8, (w, gw)), (1u8, (b, gb))] {
                let st = self.state.entry((idx, which)).or_insert_with(|| AdamState {
                    m: Tensor::zeros(param.dims()),
                    v: Tensor::zeros(param.dims()),
                });
                let p = param.as_mut_slice();
                let g = grad.as_slice();
                let m = st.m.as_mut_slice();
                let v = st.v.as_mut_slice();
                for i in 0..p.len() {
                    m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
                    v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    p[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                }
            }
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainingSummary {
    /// Mean loss per epoch.
    pub loss_history: Vec<f64>,
    /// Accuracy on the training split after the final epoch.
    pub final_train_accuracy: f64,
    /// Accuracy on the test split after the final epoch.
    pub final_test_accuracy: f64,
}

/// Mini-batch Adam trainer.
///
/// Training follows the HPNN protocol (paper §2.2): the true key is fixed
/// in its hardware slots while every weight and bias adapts, entangling
/// parameters with the key.
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    /// Adam learning rate.
    pub lr: f64,
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer {
            lr: 3e-3,
            epochs: 20,
            batch_size: 32,
        }
    }
}

impl Trainer {
    /// A short schedule for tests and examples.
    pub fn quick() -> Self {
        Trainer {
            lr: 5e-3,
            epochs: 8,
            batch_size: 32,
        }
    }

    /// Trains `model` in place on `data` under its true key.
    pub fn fit(&self, model: &mut LockedModel, data: &Dataset, rng: &mut Prng) -> TrainingSummary {
        let keys = model.true_key().to_assignment();
        let mut adam = Adam::new(self.lr);
        let mut loss_history = Vec::with_capacity(self.epochs);
        // One workspace across every Adam step of the run; the planned
        // forward/backward reuse its per-node buffers each mini-batch.
        let mut ws = relock_graph::Workspace::new();
        for _ in 0..self.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            // Collect batches up front to sidestep borrowing the model
            // inside the iterator.
            let batch_list: Vec<(Tensor, Vec<usize>)> =
                data.train.batches(self.batch_size, rng).collect();
            for (x, y) in batch_list {
                let graph = model.white_box();
                graph.forward_into(&mut ws, &x, &keys);
                let logits = ws.value(graph.output_id());
                let (loss, grad) = softmax_cross_entropy(logits, &y);
                let grads = graph.backward_into(&mut ws, &grad, &keys);
                adam.step(model.white_box_mut(), &grads.params);
                epoch_loss += loss;
                batches += 1;
            }
            loss_history.push(epoch_loss / batches.max(1) as f64);
        }
        let final_train_accuracy = model.accuracy(data.train.inputs(), data.train.labels());
        let final_test_accuracy = model.accuracy(data.test.inputs(), data.test.labels());
        TrainingSummary {
            loss_history,
            final_train_accuracy,
            final_test_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{build_mlp, MlpSpec};
    use relock_data::mnist_like;
    use relock_locking::{Key, LockSpec};

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_rows(&[&[0.5, -1.0, 2.0], &[0.0, 0.0, 0.0]]);
        let labels = vec![2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for s in 0..2 {
            for c in 0..3 {
                let mut up = logits.clone();
                *up.at_mut(&[s, c]) += eps;
                let mut down = logits.clone();
                *down.at_mut(&[s, c]) -= eps;
                let (lu, _) = softmax_cross_entropy(&up, &labels);
                let (ld, _) = softmax_cross_entropy(&down, &labels);
                let fd = (lu - ld) / (2.0 * eps);
                assert!(
                    (fd - grad.get2(s, c)).abs() < 1e-6,
                    "({s},{c}): {fd} vs {}",
                    grad.get2(s, c)
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut rng = Prng::seed_from_u64(80);
        let task = mnist_like(&mut rng, 300, 100, 20);
        let mut model = build_mlp(
            &MlpSpec {
                input: 20,
                hidden: vec![24, 16],
                classes: 10,
            },
            LockSpec::evenly(8),
            &mut rng,
        )
        .unwrap();
        let summary = Trainer {
            lr: 5e-3,
            epochs: 15,
            batch_size: 32,
        }
        .fit(&mut model, &task, &mut rng);
        assert!(
            summary.loss_history.first().unwrap() > summary.loss_history.last().unwrap(),
            "loss should decrease: {:?}",
            summary.loss_history
        );
        assert!(
            summary.final_test_accuracy > 0.85,
            "test accuracy {}",
            summary.final_test_accuracy
        );
    }

    #[test]
    fn wrong_key_degrades_trained_model() {
        let mut rng = Prng::seed_from_u64(81);
        let task = mnist_like(&mut rng, 300, 100, 16);
        let mut model = build_mlp(
            &MlpSpec {
                input: 16,
                hidden: vec![24],
                classes: 10,
            },
            LockSpec::evenly(12),
            &mut rng,
        )
        .unwrap();
        Trainer {
            lr: 5e-3,
            epochs: 15,
            batch_size: 32,
        }
        .fit(&mut model, &task, &mut rng);
        let right = model.accuracy(task.test.inputs(), task.test.labels());
        // Average accuracy over a few random wrong keys (the paper's
        // baseline-accuracy protocol with 16 keys, abbreviated).
        let mut wrong_sum = 0.0;
        for _ in 0..4 {
            let wrong = Key::random(12, &mut rng);
            wrong_sum += model.accuracy_with(task.test.inputs(), task.test.labels(), &wrong);
        }
        let wrong_avg = wrong_sum / 4.0;
        assert!(
            wrong_avg < right - 0.2,
            "locking should matter: right {right}, wrong {wrong_avg}"
        );
    }
}

#[cfg(test)]
mod conv_attention_training_tests {
    use super::*;
    use crate::lenet::{build_lenet, LenetSpec};
    use crate::vit::{build_vit, VitSpec};
    use relock_data::cifar_like;
    use relock_locking::LockSpec;

    #[test]
    fn lenet_training_reduces_loss() {
        let mut rng = Prng::seed_from_u64(900);
        let task = cifar_like(&mut rng, 120, 40, 1, 12, 12);
        let spec = LenetSpec {
            in_channels: 1,
            h: 12,
            w: 12,
            c1: 3,
            c2: 4,
            fc1: 10,
            fc2: 8,
            classes: 10,
        };
        let mut model = build_lenet(&spec, LockSpec::evenly(4), &mut rng).unwrap();
        let summary = Trainer {
            lr: 5e-3,
            epochs: 5,
            batch_size: 16,
        }
        .fit(&mut model, &task, &mut rng);
        assert!(
            summary.loss_history.first().unwrap() > summary.loss_history.last().unwrap(),
            "{:?}",
            summary.loss_history
        );
    }

    #[test]
    fn vit_training_reduces_loss() {
        let mut rng = Prng::seed_from_u64(901);
        let task = cifar_like(&mut rng, 120, 40, 1, 8, 8);
        let spec = VitSpec {
            in_channels: 1,
            h: 8,
            w: 8,
            patch: 4,
            embed: 8,
            heads: 2,
            blocks: 1,
            mlp_hidden: 12,
            classes: 10,
        };
        let mut model = build_vit(&spec, LockSpec::evenly(4), &mut rng).unwrap();
        let summary = Trainer {
            lr: 3e-3,
            epochs: 6,
            batch_size: 16,
        }
        .fit(&mut model, &task, &mut rng);
        assert!(
            summary.loss_history.first().unwrap() > summary.loss_history.last().unwrap(),
            "{:?}",
            summary.loss_history
        );
    }

    #[test]
    fn training_only_moves_parameters_not_the_key() {
        let mut rng = Prng::seed_from_u64(902);
        let task = relock_data::mnist_like(&mut rng, 100, 30, 8);
        let mut model = crate::mlp::build_mlp(
            &crate::mlp::MlpSpec {
                input: 8,
                hidden: vec![6],
                classes: 10,
            },
            LockSpec::evenly(3),
            &mut rng,
        )
        .unwrap();
        let key_before = model.true_key().clone();
        Trainer::quick().fit(&mut model, &task, &mut rng);
        assert_eq!(
            model.true_key(),
            &key_before,
            "the key is fixed during training"
        );
    }
}
