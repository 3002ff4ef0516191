//! Handling oracles that reveal softmax probabilities instead of logits.
//!
//! The paper's adversary "can then observe the logits or the output
//! vector" (§2.3). A probability oracle is auto-detected (rows on the
//! simplex), and the attack's learning loss and final comparison are then
//! computed in probability space, chaining the softmax Jacobian into the
//! gradient.

use relock_tensor::Tensor;

/// Heuristic: does every row of `y` live on the probability simplex?
pub(crate) fn looks_like_probabilities(y: &Tensor) -> bool {
    let (rows, cols) = (y.dims()[0], y.dims()[1]);
    if rows == 0 || cols == 0 {
        return false;
    }
    for r in 0..rows {
        let row = y.row(r);
        let sum: f64 = row.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || row.iter().any(|&p| !(0.0..=1.0 + 1e-12).contains(&p)) {
            return false;
        }
    }
    true
}

/// Applies row-wise softmax to a `(B, Q)` matrix.
pub(crate) fn softmax_rows(logits: &Tensor) -> Tensor {
    let mut out = Tensor::zeros([0]);
    softmax_rows_into(logits, &mut out);
    out
}

/// [`softmax_rows`] into a reused buffer.
pub(crate) fn softmax_rows_into(logits: &Tensor, out: &mut Tensor) {
    let (b, q) = (logits.dims()[0], logits.dims()[1]);
    out.reset_shape([b, q]);
    for (o, z) in out
        .as_mut_slice()
        .chunks_exact_mut(q)
        .zip(logits.as_slice().chunks_exact(q))
    {
        let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (o, &v) in o.iter_mut().zip(z) {
            *o = (v - m).exp();
        }
        let inv = 1.0 / o.iter().sum::<f64>();
        for o in o.iter_mut() {
            *o *= inv;
        }
    }
}

/// Pulls a gradient at the probabilities back to the logits into `out`:
/// `dL/dz = s ∘ (g − ⟨g, s⟩)` per row, where `s = softmax(z)`.
pub(crate) fn softmax_vjp_rows_into(probs: &Tensor, grad_probs: &Tensor, out: &mut Tensor) {
    let (b, q) = (probs.dims()[0], probs.dims()[1]);
    out.reset_shape([b, q]);
    for (r, o) in out.as_mut_slice().chunks_exact_mut(q).enumerate() {
        let s = probs.row(r);
        let g = grad_probs.row(r);
        let dot: f64 = s.iter().zip(g).map(|(&sv, &gv)| sv * gv).sum();
        for ((o, &sv), &gv) in o.iter_mut().zip(s).zip(g) {
            *o = sv * (gv - dot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_tensor::rng::Prng;

    #[test]
    fn detects_probability_rows() {
        let probs = Tensor::from_rows(&[&[0.2, 0.3, 0.5], &[1.0, 0.0, 0.0]]);
        assert!(looks_like_probabilities(&probs));
        let logits = Tensor::from_rows(&[&[2.0, -1.0, 0.4]]);
        assert!(!looks_like_probabilities(&logits));
    }

    #[test]
    fn softmax_vjp_matches_finite_differences() {
        let mut rng = Prng::seed_from_u64(42);
        let z = rng.normal_tensor([2, 4]);
        let g = rng.normal_tensor([2, 4]);
        let s = softmax_rows(&z);
        let mut an = Tensor::zeros([0]);
        softmax_vjp_rows_into(&s, &g, &mut an);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..4 {
                let mut zp = z.clone();
                *zp.at_mut(&[r, c]) += eps;
                let mut zm = z.clone();
                *zm.at_mut(&[r, c]) -= eps;
                let lp = softmax_rows(&zp).dot(&g);
                let lm = softmax_rows(&zm).dot(&g);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - an.get2(r, c)).abs() < 1e-7,
                    "({r},{c}): {fd} vs {}",
                    an.get2(r, c)
                );
            }
        }
    }
}
